(* The serve wire protocol: newline-delimited JSON, one request object
   per line in, one response object per line out.

   Request:  {"id": <any>, "op": "profile", "app": "nn",
              "arch": "kepler", "scale": 2, "timeout_ms": 60000}
   Response: {"id": <echoed>, "ok": true,  "op": "profile", "result": {...}}
         or  {"id": <echoed>, "ok": false, "op": "profile",
              "error": {"code": "timeout", "message": "..."}}

   The [id] is opaque to the daemon and echoed verbatim (clients
   correlate by it — responses may come back out of order, since
   requests run concurrently).  Unknown request fields are ignored for
   forward compatibility; wrongly-typed known fields are a
   ["bad_request"].

   Error codes: "bad_request", "unknown_op", "unknown_app",
   "unknown_arch", "overloaded" (bounded queue full — retry later),
   "timeout" (the per-request wall-clock deadline fired),
   "failed" (the operation itself raised), "shutting_down". *)

module Json = Analysis.Json
module Jsonv = Obs.Jsonv

(* One kernel variant of an evaluate batch: an optional source
   replacement plus the two non-source knobs.  All fields optional —
   an empty object is the app's pristine kernel. *)
type variant = {
  v_name : string option; (* stable id; defaults to "v<index>" *)
  v_source : string option;
  v_block_x : int option;
  v_bypass_warps : int option;
}

type request = {
  id : Json.t; (* echoed verbatim; [Json.Null] when absent *)
  op : string;
  app : string option;
  arch_name : string; (* default "kepler" *)
  scale : int option;
  timeout_ms : int option; (* overrides the server default *)
  domains : int option; (* fan-out inside one request (bypass/evaluate) *)
  instrument : string option; (* compile op: none|profile|check|all *)
  tier : string option; (* profile op: exact|static answer tier *)
  bankmodel : bool option; (* profile op: charge bank-conflict replays *)
  ms : int option; (* sleep op *)
  variants : variant list option; (* evaluate op: the batch *)
  baseline : string option; (* evaluate op: baseline variant name *)
}

(* Parsed values echo back through the response encoder, so convert the
   validator's representation to the emitter's; integral numbers become
   [Int] (ids are typically sequence numbers). *)
let rec json_of_jsonv : Jsonv.t -> Json.t = function
  | Jsonv.Null -> Json.Null
  | Jsonv.Bool b -> Json.Bool b
  | Jsonv.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Json.Int (int_of_float f)
    else Json.Float f
  | Jsonv.Str s -> Json.String s
  | Jsonv.Arr l -> Json.List (List.map json_of_jsonv l)
  | Jsonv.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> (k, json_of_jsonv v)) fields)

(* ----- request parsing ----- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let str_field obj name =
  match Jsonv.member name obj with
  | None | Some Jsonv.Null -> Ok None
  | Some (Jsonv.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let int_field obj name =
  match Jsonv.member name obj with
  | None | Some Jsonv.Null -> Ok None
  | Some (Jsonv.Num f) when Float.is_integer f -> Ok (Some (int_of_float f))
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let bool_field obj name =
  match Jsonv.member name obj with
  | None | Some Jsonv.Null -> Ok None
  | Some (Jsonv.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

(* "variants": an array of objects, each with optional name / source /
   block_x / bypass_warps.  Parsing stays purely structural here;
   semantic limits (batch size, unique names, baseline membership) are
   the router's validation. *)
let variants_field obj =
  let variant_at i v =
    match v with
    | Jsonv.Obj _ ->
      let* v_name = str_field v "name" in
      let* v_source = str_field v "source" in
      let* v_block_x = int_field v "block_x" in
      let* v_bypass_warps = int_field v "bypass_warps" in
      Ok { v_name; v_source; v_block_x; v_bypass_warps }
    | _ -> Error (Printf.sprintf "variants[%d] must be a JSON object" i)
  in
  match Jsonv.member "variants" obj with
  | None | Some Jsonv.Null -> Ok None
  | Some (Jsonv.Arr items) ->
    let* parsed =
      List.fold_left
        (fun acc (i, v) ->
          let* acc = acc in
          let* one = variant_at i v in
          Ok (one :: acc))
        (Ok [])
        (List.mapi (fun i v -> (i, v)) items)
    in
    Ok (Some (List.rev parsed))
  | Some _ -> Error "field \"variants\" must be an array"

(* Parse one request line.  Errors carry (id, code, message) so the
   reply can still correlate when the envelope parsed but a field was
   bad; an unparseable line gets [id = Null]. *)
let parse_request line : (request, Json.t * string * string) result =
  match Jsonv.parse line with
  | Error msg -> Error (Json.Null, "bad_request", "invalid JSON: " ^ msg)
  | Ok (Jsonv.Obj _ as obj) -> (
    let id =
      match Jsonv.member "id" obj with
      | None -> Json.Null
      | Some v -> json_of_jsonv v
    in
    let fields =
      let* op =
        match Jsonv.member "op" obj with
        | Some (Jsonv.Str s) -> Ok s
        | Some _ -> Error "field \"op\" must be a string"
        | None -> Error "missing required field \"op\""
      in
      let* app = str_field obj "app" in
      let* arch = str_field obj "arch" in
      let* scale = int_field obj "scale" in
      let* timeout_ms = int_field obj "timeout_ms" in
      let* domains = int_field obj "domains" in
      let* instrument = str_field obj "instrument" in
      let* tier = str_field obj "tier" in
      let* bankmodel = bool_field obj "bankmodel" in
      let* ms = int_field obj "ms" in
      let* variants = variants_field obj in
      let* baseline = str_field obj "baseline" in
      Ok
        {
          id;
          op;
          app;
          arch_name = Option.value arch ~default:"kepler";
          scale;
          timeout_ms;
          domains;
          instrument;
          tier;
          bankmodel;
          ms;
          variants;
          baseline;
        }
    in
    match fields with
    | Ok req -> Ok req
    | Error msg -> Error (id, "bad_request", msg))
  | Ok _ -> Error (Json.Null, "bad_request", "request must be a JSON object")

(* ----- response encoding ----- *)

let ok_response ~id ~op result =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool true); ("op", Json.String op);
      ("result", result) ]

let error_response ~id ~op ~code message =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false); ("op", Json.String op);
      ( "error",
        Json.Obj
          [ ("code", Json.String code); ("message", Json.String message) ] ) ]

(* One response per line: the emitter never produces raw newlines
   (strings are escaped), so [to_string] output is line-safe. *)
let to_line json = Json.to_string json

(* A success line spliced around an already-serialized [result] (the
   result cache stores serialized bytes).  Byte-identical to
   [to_line (ok_response ...)] because the emitter writes object fields
   in order with no whitespace. *)
let ok_line_raw ~id ~op raw_result =
  Printf.sprintf "{\"id\":%s,\"ok\":true,\"op\":%s,\"result\":%s}"
    (Json.to_string id)
    (Json.to_string (Json.String op))
    raw_result
