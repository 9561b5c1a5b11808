(* The workloads' inputs, generated from the seed.  The seed fixes the
   request order and the salts; the daemon only ever sees the request
   lines built here. *)

module Json = Analysis.Json

(* profile-exact and served-hot cover these apps on both archs.  lavaMD
   (~8 s a request) and syr2k (~5 s, the same shape as syrk) are left
   out to keep a pass near 14 s. *)
let profile_apps = [ "backprop"; "bfs"; "hotspot"; "nn"; "nw"; "srad_v2"; "bicg"; "syrk" ]
let archs = [ "kepler"; "pascal" ]
let profile_keys = List.concat_map (fun a -> List.map (fun r -> (a, r)) archs) profile_apps

(* evaluate-batch tournaments *)
let evaluate_apps = [ "nn"; "bicg"; "bfs"; "nw" ]
let evaluate_arch = "kepler"

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A served request: the line sent, plus what the benchmark keys its
   checks on. *)
type request = { key : string; op : string; line : string }

let profile_request ~id ~op (app, arch) =
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int id); ("op", Json.String op); ("app", Json.String app);
           ("arch", Json.String arch) ])
  in
  { key = Printf.sprintf "%s/%s/%s" op app arch; op; line }

(* One pass of profile-exact: every key once, in the seed's order. *)
let profile_order seed = shuffle (rng seed 1) profile_keys

(* served-hot: exact and static answers for every key. *)
let hot_keys =
  List.concat_map (fun k -> [ ("profile", k); ("profile_fast", k) ]) profile_keys

(* The served-hot traffic: keys drawn uniformly by the seed; request
   [id] asks for entry [id mod 4096]. *)
let hot_mix seed =
  let keys = Array.of_list hot_keys in
  let st = rng seed 3 in
  Array.init 4096 (fun _ -> keys.(Random.State.int st (Array.length keys)))

(* ----- evaluate batches ----- *)

(* The standard tournament of [app], every variant (baseline included)
   carrying the app's source with a salt comment appended, so each
   variant misses the per-variant result cache and compiles fresh.
   The salt is unique per (seed, batch, variant). *)
let evaluate_specs ~seed ~batch app =
  let w = Workloads.Registry.find app in
  List.mapi
    (fun vi (s : Tune.Evaluate.spec) ->
      let src = Tune.Evaluate.resolved_source w s in
      { s with
        Tune.Evaluate.sp_source =
          Some (Printf.sprintf "%s\n// perfbench salt %d.%d.%d\n" src seed batch vi) })
    (Tune.Sweep.specs_for w)

let evaluate_request ~id ~seed ~batch app =
  let specs = evaluate_specs ~seed ~batch app in
  let opt_int = function None -> Json.Null | Some n -> Json.Int n in
  let variant (s : Tune.Evaluate.spec) =
    Json.Obj
      [ ("name", Json.String s.Tune.Evaluate.sp_name);
        ("source", Json.String (Option.get s.Tune.Evaluate.sp_source));
        ("block_x", opt_int s.Tune.Evaluate.sp_block_x);
        ("bypass_warps", opt_int s.Tune.Evaluate.sp_bypass_warps) ]
  in
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int id); ("op", Json.String "evaluate"); ("app", Json.String app);
           ("arch", Json.String evaluate_arch);
           ("baseline", Json.String Tune.Sweep.baseline_name);
           ("variants", Json.List (List.map variant specs)) ])
  in
  { key = "evaluate/" ^ app; op = "evaluate"; line }

(* Batch [b] of a run cycles the seed's app order. *)
let evaluate_order seed = shuffle (rng seed 2) evaluate_apps

(* First index >= [from] where [pat] occurs in [s]. *)
let find_sub s pat from =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go from

(* Result bytes of a batch with the salt-dependent source digests cut
   out, so batches of one app compare equal across salts. *)
let strip_digests raw =
  let pat = {|"source_digest":"|} in
  let pl = String.length pat in
  let b = Buffer.create (String.length raw) in
  let rec go i =
    match find_sub raw pat i with
    | None -> Buffer.add_substring b raw i (String.length raw - i)
    | Some j ->
      Buffer.add_substring b raw i (j + pl - i);
      (* skip the 32 hex digits *)
      go (j + pl + 32)
  in
  go 0;
  Buffer.contents b
