(* Tests for the MiniCUDA frontend: lexer, parser, typechecker and
   lowering — including a differential property test that compiles
   random integer expressions and compares the simulator's result with a
   direct OCaml evaluation. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- lexer ----- *)

let toks src =
  List.map (fun (sp : Minicuda.Lexer.spanned) -> sp.tok) (Minicuda.Lexer.tokenize ~file:"t.cu" src)

let test_lex_basic () =
  Alcotest.(check int) "count" 6 (List.length (toks "int x = 1 ;"));
  check "kw" true (List.hd (toks "__global__ void") = Minicuda.Token.Kw_global);
  check "ident" true (toks "foo" = [ Minicuda.Token.Ident "foo"; Minicuda.Token.Eof ])

let test_lex_numbers () =
  check "int" true (toks "42" = [ Minicuda.Token.Int_lit 42; Minicuda.Token.Eof ]);
  check "float" true (toks "1.5" = [ Minicuda.Token.Float_lit 1.5; Minicuda.Token.Eof ]);
  check "f suffix" true (toks "2f" = [ Minicuda.Token.Float_lit 2.0; Minicuda.Token.Eof ]);
  check "suffixed decimal" true
    (toks "0.5f" = [ Minicuda.Token.Float_lit 0.5; Minicuda.Token.Eof ]);
  check "exponent" true
    (toks "1e3" = [ Minicuda.Token.Float_lit 1000.0; Minicuda.Token.Eof ]);
  check "neg exponent" true
    (toks "2.5e-1" = [ Minicuda.Token.Float_lit 0.25; Minicuda.Token.Eof ])

let test_lex_operators () =
  check "shift" true
    (toks "a << 2 >> b"
    = Minicuda.Token.[ Ident "a"; Shl; Int_lit 2; Shr; Ident "b"; Eof ]);
  check "cmp" true
    (toks "<= >= == != && || !"
    = Minicuda.Token.[ Le; Ge; Eq_eq; Bang_eq; Amp_amp; Pipe_pipe; Bang; Eof ])

let test_lex_comments () =
  check "line comment" true (toks "a // comment\nb" = Minicuda.Token.[ Ident "a"; Ident "b"; Eof ]);
  check "block comment" true (toks "a /* x\ny */ b" = Minicuda.Token.[ Ident "a"; Ident "b"; Eof ])

let test_lex_positions () =
  let sps = Minicuda.Lexer.tokenize ~file:"t.cu" "a\n  b" in
  match sps with
  | [ a; b; _eof ] ->
    check_int "a line" 1 a.line;
    check_int "b line" 2 b.line;
    check_int "b col" 3 b.col
  | _ -> Alcotest.fail "token count"

let test_lex_errors () =
  check "bad char" true
    (match toks "$" with
    | exception Minicuda.Lexer.Error _ -> true
    | _ -> false);
  check "unterminated comment" true
    (match toks "/* oops" with
    | exception Minicuda.Lexer.Error _ -> true
    | _ -> false);
  (* malformed numeric literals: a lex error at the literal, not a raw
     Failure from float_of_string / int_of_string *)
  List.iter
    (fun lit ->
      match toks ("x =\n  " ^ lit ^ ";") with
      | exception Minicuda.Lexer.Error { line; col; _ } ->
        check_int (lit ^ " line") 2 line;
        check_int (lit ^ " col") 3 col
      | _ -> Alcotest.failf "%s lexed without an error" lit)
    [ "1.5e"; "1e+"; "99999999999999999999999" ]

(* ----- parser / typechecker negative cases ----- *)

let compiles src =
  match Minicuda.Frontend.compile ~file:"t.cu" src with
  | _ -> true
  | exception Minicuda.Frontend.Error _ -> false

let wrap body = Printf.sprintf "__global__ void k(float* a, int n) { %s }" body

let test_reject_cases () =
  let bad =
    [ ("unbound var", wrap "x = 1;");
      ("bool arithmetic", wrap "int x = (n > 0) + 1;");
      ("if on int", wrap "if (n) { a[0] = 1.0f; }");
      ("call unknown", wrap "foo(n);");
      ("assign to shared array name", "__global__ void k() { __shared__ float t[4]; t = 0.0f; }");
      ("index non-pointer", wrap "int x = n[0];");
      ("void variable", wrap "void v = n;");
      ("redeclaration", wrap "int x = 1; int x = 2;");
      ("kernel returns value", "__global__ int k() { return 1; }");
      ("wrong arity", "__device__ int f(int x) { return x; } __global__ void k() { int y = f(1, 2); }");
      ("float shift", wrap "int x = 1 << 2.0f;");
      ("missing semicolon", wrap "int x = 1");
      ("unclosed brace", "__global__ void k() { if (1 > 0) {");
      ("duplicate function", "__device__ int f() { return 1; } __device__ int f() { return 2; }");
      ("return value from void", wrap "return n;");
      ("bad builtin field", wrap "int x = threadIdx.z;") ]
  in
  List.iter (fun (name, src) -> check name false (compiles src)) bad

let test_accept_cases () =
  let good =
    [ ("empty kernel", "__global__ void k() { }");
      ("implicit int->float", wrap "a[0] = n;");
      ("ternary", wrap "a[0] = n > 0 ? 1.0f : 2.0f;");
      ("nested loops", wrap "for (int i = 0; i < n; i = i + 1) { for (int j = 0; j < i; j = j + 1) { a[i] = a[j]; } }");
      ("while", wrap "int i = 0; while (i < n) { i = i + 1; }");
      ("device call", "__device__ float sq(float x) { return x * x; } __global__ void k(float* a) { a[0] = sq(a[1]); }");
      ("address-of", wrap "float old = atomicAdd(&a[0], 1.0f);");
      ("scoped shadowing", wrap "int i = 1; { int j = i + 1; a[j] = 0.0f; }");
      ("pointer arithmetic", wrap "float* p = a + n; p[0] = 1.0f;");
      ("bool var", wrap "bool flag = n > 2; if (flag) { a[0] = 1.0f; }") ]
  in
  List.iter (fun (name, src) -> check name true (compiles src)) good

(* ----- functional end-to-end checks through the simulator ----- *)

let run_scalar_kernel body =
  let src = Printf.sprintf "__global__ void k(int* out, int n) { %s }" body in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(1, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem 400004 in
        out := d;
        [ Gpusim.Value.I d; Gpusim.Value.I 10 ])
      src
  in
  Gpusim.Devmem.read_i32 dev.Gpusim.Gpu.devmem !out

let test_exec_arith () =
  check_int "precedence" (1 + (2 * 10)) (run_scalar_kernel "out[0] = 1 + 2 * n;");
  check_int "parens" ((1 + 2) * 10) (run_scalar_kernel "out[0] = (1 + 2) * n;");
  check_int "rem" 1 (run_scalar_kernel "out[0] = n % 3;");
  check_int "shift" 40 (run_scalar_kernel "out[0] = n << 2;");
  check_int "bitand" 2 (run_scalar_kernel "out[0] = n & 6;");
  check_int "neg" (-10) (run_scalar_kernel "out[0] = -n;");
  check_int "min" 3 (run_scalar_kernel "out[0] = min(n, 3);");
  check_int "max" 10 (run_scalar_kernel "out[0] = max(n, 3);")

let test_exec_control_flow () =
  check_int "if taken" 1 (run_scalar_kernel "if (n > 5) { out[0] = 1; } else { out[0] = 2; }");
  check_int "if not taken" 2 (run_scalar_kernel "if (n > 50) { out[0] = 1; } else { out[0] = 2; }");
  check_int "for sum" 45 (run_scalar_kernel "int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } out[0] = s;");
  check_int "while" 16 (run_scalar_kernel "int x = 1; while (x < n) { x = x * 2; } out[0] = x;");
  check_int "early return" 7
    (run_scalar_kernel "out[0] = 7; if (n > 0) { return; } out[0] = 8;");
  check_int "short-circuit and skips rhs" 5
    (run_scalar_kernel "if (n < 0 && out[1000000000] > 0) { out[0] = 1; } else { out[0] = 5; }");
  check_int "short-circuit or skips rhs" 6
    (run_scalar_kernel "if (n > 0 || out[1000000000] > 0) { out[0] = 6; } else { out[0] = 1; }");
  check_int "ternary" 3 (run_scalar_kernel "out[0] = n > 5 ? 3 : 4;")

let test_exec_casts () =
  check_int "float to int truncates" 3 (run_scalar_kernel "float f = 3.9f; out[0] = (int)f;");
  check_int "int to float and back" 10 (run_scalar_kernel "float f = (float)n; out[0] = (int)f;");
  check_int "bool to int" 1 (run_scalar_kernel "out[0] = (int)(n > 5);")

let test_exec_device_call () =
  check_int "recursive factorial on device" 120
    (run_scalar_kernel
       "out[0] = 0; if (n > 0) { out[0] = 120; }"
       (* recursion exercised separately below *));
  let src =
    {|
__device__ int fact(int n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
__global__ void k(int* out, int n) { out[0] = fact(5); }
|}
  in
  let out = ref 0 in
  let dev, _, _ =
    Testutil.run_kernel ~kernel:"k" ~block:(1, 1)
      ~setup:(fun dev ->
        let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem 64 in
        out := d;
        [ Gpusim.Value.I d; Gpusim.Value.I 0 ])
      src
  in
  check_int "fact(5)" 120 (Gpusim.Devmem.read_i32 dev.Gpusim.Gpu.devmem !out)

let test_debug_locations () =
  let m =
    Minicuda.Frontend.compile ~file:"t.cu"
      "__global__ void k(float* a) {\n  a[0] = 1.0f;\n}"
  in
  let f = Bitc.Irmod.find_func_exn m "k" in
  let found = ref false in
  Bitc.Func.iter_instrs f (fun _ i ->
      if Bitc.Instr.is_memory_access i && i.loc.Bitc.Loc.line = 2 then found := true);
  check "store attributed to line 2" true !found

(* ----- differential property test ----- *)

type e = Lit of int | Var | Add of e * e | Sub of e * e | Mul of e * e
       | Min of e * e | Max of e * e

let rec render = function
  | Lit i -> Printf.sprintf "(%d)" i
  | Var -> "n"
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (render a) (render b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (render a) (render b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (render a) (render b)
  | Min (a, b) -> Printf.sprintf "min(%s, %s)" (render a) (render b)
  | Max (a, b) -> Printf.sprintf "max(%s, %s)" (render a) (render b)

let rec eval n = function
  | Lit i -> i
  | Var -> n
  | Add (a, b) -> eval n a + eval n b
  | Sub (a, b) -> eval n a - eval n b
  | Mul (a, b) -> eval n a * eval n b
  | Min (a, b) -> min (eval n a) (eval n b)
  | Max (a, b) -> max (eval n a) (eval n b)

let gen_expr =
  QCheck2.Gen.(
    let node =
      fix (fun self size ->
          if size <= 1 then
            oneof [ map (fun i -> Lit i) (int_range (-20) 20); return Var ]
          else
            let sub = self (size / 2) in
            oneof
              [ map2 (fun a b -> Add (a, b)) sub sub;
                map2 (fun a b -> Sub (a, b)) sub sub;
                map2 (fun a b -> Mul (a, b)) sub sub;
                map2 (fun a b -> Min (a, b)) sub sub;
                map2 (fun a b -> Max (a, b)) sub sub ])
    in
    int_range 1 24 >>= node)

let qcheck_expr_differential =
  QCheck2.Test.make ~name:"simulator matches OCaml on random expressions" ~count:60
    QCheck2.Gen.(pair gen_expr (int_range (-5) 15))
    (fun (e, n) ->
      let src =
        Printf.sprintf "__global__ void k(int* out, int n) { out[0] = %s; }" (render e)
      in
      let out = ref 0 in
      let dev, _, _ =
        Testutil.run_kernel ~kernel:"k" ~block:(1, 1)
          ~setup:(fun dev ->
            let d = Gpusim.Devmem.malloc dev.Gpusim.Gpu.devmem 64 in
            out := d;
            [ Gpusim.Value.I d; Gpusim.Value.I n ])
          src
      in
      Gpusim.Devmem.read_i32 dev.Gpusim.Gpu.devmem !out = eval n e)

let () =
  Alcotest.run "minicuda"
    [
      ( "lexer",
        [ Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "errors" `Quick test_lex_errors ] );
      ( "typecheck",
        [ Alcotest.test_case "rejections" `Quick test_reject_cases;
          Alcotest.test_case "acceptances" `Quick test_accept_cases ] );
      ( "execution",
        [ Alcotest.test_case "arithmetic" `Quick test_exec_arith;
          Alcotest.test_case "control flow" `Quick test_exec_control_flow;
          Alcotest.test_case "casts" `Quick test_exec_casts;
          Alcotest.test_case "device calls + recursion" `Quick test_exec_device_call;
          Alcotest.test_case "debug locations" `Quick test_debug_locations ] );
      ( "properties", [ QCheck_alcotest.to_alcotest qcheck_expr_differential ] );
    ]
