(* Hand-written lexer for MiniCUDA.  Tracks line and column so every
   token — and hence every IR instruction — carries the debug location
   that the instrumentation engine forwards to the profiler. *)

exception Error of { file : string; line : int; col : int; msg : string }

type spanned = { tok : Token.t; line : int; col : int }

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make ~file src = { src; file; pos = 0; line = 1; col = 1 }

let error st msg = raise (Error { file = st.file; line = st.line; col = st.col; msg })

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let keyword = function
  | "__global__" -> Some Token.Kw_global
  | "__device__" -> Some Token.Kw_device
  | "__shared__" -> Some Token.Kw_shared
  | "void" -> Some Token.Kw_void
  | "int" -> Some Token.Kw_int
  | "float" -> Some Token.Kw_float
  | "bool" -> Some Token.Kw_bool
  | "if" -> Some Token.Kw_if
  | "else" -> Some Token.Kw_else
  | "for" -> Some Token.Kw_for
  | "while" -> Some Token.Kw_while
  | "return" -> Some Token.Kw_return
  | "true" -> Some Token.Kw_true
  | "false" -> Some Token.Kw_false
  | _ -> None

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_trivia st
  | Some '/' when peek2 st = Some '/' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
    advance st;
    advance st;
    let rec to_close () =
      match peek st, peek2 st with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | Some _, _ ->
        advance st;
        to_close ()
      | None, _ -> error st "unterminated block comment"
    in
    to_close ();
    skip_trivia st
  | Some _ | None -> ()

let lex_number st =
  let start = st.pos and line = st.line and col = st.col in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    match peek st with
    | Some '.' when (match peek2 st with Some c -> is_digit c | _ -> false) ->
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      true
    | Some '.' ->
      advance st;
      true
    | _ -> false
  in
  (* Exponent part, e.g. 1.0e-3. *)
  let is_float =
    match peek st with
    | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      true
    | _ -> is_float
  in
  let text = String.sub st.src start (st.pos - start) in
  (* Consume an optional 'f' suffix; it forces a float literal. *)
  let is_float =
    match peek st with
    | Some ('f' | 'F') ->
      advance st;
      true
    | _ -> is_float
  in
  (* a dangling exponent ("1.5e", "1e+") or an integer past max_int is
     reported at the literal's start, like any other lex error *)
  let bad msg = raise (Error { file = st.file; line; col; msg }) in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Token.Float_lit f
    | None -> bad (Printf.sprintf "malformed float literal '%s'" text)
  else
    match int_of_string_opt text with
    | Some i -> Token.Int_lit i
    | None -> bad (Printf.sprintf "integer literal '%s' out of range" text)

let next st =
  skip_trivia st;
  let line = st.line and col = st.col in
  let tok =
    match peek st with
    | None -> Token.Eof
    | Some c when is_digit c -> lex_number st
    | Some c when is_ident_start c ->
      let start = st.pos in
      while (match peek st with Some c -> is_ident_char c | None -> false) do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      (match keyword text with Some kw -> kw | None -> Token.Ident text)
    | Some c ->
      let two target a b =
        advance st;
        if peek st = Some b then (
          advance st;
          target)
        else a
      in
      (match c with
      | '(' ->
        advance st;
        Token.Lparen
      | ')' ->
        advance st;
        Token.Rparen
      | '{' ->
        advance st;
        Token.Lbrace
      | '}' ->
        advance st;
        Token.Rbrace
      | '[' ->
        advance st;
        Token.Lbracket
      | ']' ->
        advance st;
        Token.Rbracket
      | ',' ->
        advance st;
        Token.Comma
      | ';' ->
        advance st;
        Token.Semi
      | '.' ->
        advance st;
        Token.Dot
      | '+' ->
        advance st;
        Token.Plus
      | '-' ->
        advance st;
        Token.Minus
      | '*' ->
        advance st;
        Token.Star
      | '/' ->
        advance st;
        Token.Slash
      | '%' ->
        advance st;
        Token.Percent
      | '^' ->
        advance st;
        Token.Caret
      | '?' ->
        advance st;
        Token.Question
      | ':' ->
        advance st;
        Token.Colon
      | '&' -> two Token.Amp_amp Token.Amp '&'
      | '|' -> two Token.Pipe_pipe Token.Pipe '|'
      | '<' -> (
        advance st;
        match peek st with
        | Some '=' ->
          advance st;
          Token.Le
        | Some '<' ->
          advance st;
          Token.Shl
        | _ -> Token.Lt)
      | '>' -> (
        advance st;
        match peek st with
        | Some '=' ->
          advance st;
          Token.Ge
        | Some '>' ->
          advance st;
          Token.Shr
        | _ -> Token.Gt)
      | '=' -> two Token.Eq_eq Token.Assign '='
      | '!' -> two Token.Bang_eq Token.Bang '='
      | c -> error st (Printf.sprintf "unexpected character %C" c))
  in
  { tok; line; col }

(* Lex the whole input eagerly; kernels are small so this is simplest for
   the recursive-descent parser's lookahead. *)
let tokenize ~file src =
  let st = make ~file src in
  let rec go acc =
    let sp = next st in
    if sp.tok = Token.Eof then List.rev (sp :: acc) else go (sp :: acc)
  in
  go []
