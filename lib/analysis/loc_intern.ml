(* Source locations interned across several traces, in first-seen
   order.  Each trace already interns its own locations in first-seen
   order, so mapping a trace's local ids in increasing order gives the
   ids a single trace of all the events, in order, would have given. *)

type t = { ids : (Bitc.Loc.t, int) Hashtbl.t; mutable locs : Bitc.Loc.t array }

let create () = { ids = Hashtbl.create 64; locs = Array.make 64 Bitc.Loc.none }
let count t = Hashtbl.length t.ids
let loc t id = t.locs.(id)

let intern t loc =
  match Hashtbl.find_opt t.ids loc with
  | Some id -> id
  | None ->
    let id = count t in
    if id = Array.length t.locs then begin
      let a = Array.make (2 * id) Bitc.Loc.none in
      Array.blit t.locs 0 a 0 id;
      t.locs <- a
    end;
    t.locs.(id) <- loc;
    Hashtbl.add t.ids loc id;
    id

(* Global id of each of [tr]'s local location ids. *)
let of_trace t (tr : Profiler.Tracebuf.t) =
  Array.init (Profiler.Tracebuf.num_locs tr) (fun lid ->
      intern t (Profiler.Tracebuf.loc_of_id tr lid))
