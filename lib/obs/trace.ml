type span = {
  seq : int;
  parent : int option;
  depth : int;
  name : string;
  attrs : Attr.t list;
  start_time : float;
  end_time : float;
  domain : int;
}

(* An open span awaiting its end timestamp. *)
type active = {
  a_seq : int;
  a_parent : int option;
  a_depth : int;
  a_name : string;
  a_attrs : Attr.t list;
  a_late : (unit -> Attr.t list) option;
  a_start : float;
}

let default_capacity = 16384

(* The global ring is shared across domains and Kit.Ring is not
   thread-safe, so every access goes through [mu]. Span nesting is a
   property of one domain's call stack, so [stack] is domain-local;
   likewise the capture-scope buffers, which are only ever touched by
   the domain that opened them (lock-free by confinement). *)
let mu = Mutex.create ()

let ring : span Kit.Ring.t ref = ref (Kit.Ring.create ~capacity:default_capacity)

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let stack : active list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* Capture scopes, innermost first: completed spans go to the top
   scope's buffer (newest first) instead of the global ring. *)
let scopes : span list ref list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let begin_scope () =
  let s = Domain.DLS.get scopes in
  s := ref [] :: !s

let end_scope () =
  let s = Domain.DLS.get scopes in
  match !s with
  | [] -> []
  | buf :: rest ->
    s := rest;
    List.rev !buf

let emit span =
  match !(Domain.DLS.get scopes) with
  | buf :: _ -> buf := span :: !buf
  | [] -> locked (fun () -> Kit.Ring.push !ring span)

let with_span ?(attrs = []) ?late_attrs name f =
  if not (Atomic.get State.enabled) then f ()
  else begin
    let stack = Domain.DLS.get stack in
    let parent, depth =
      match !stack with
      | [] -> (None, 0)
      | p :: _ -> (Some p.a_seq, p.a_depth + 1)
    in
    let a =
      {
        a_seq = State.fresh_seq ();
        a_parent = parent;
        a_depth = depth;
        a_name = name;
        a_attrs = attrs;
        a_late = late_attrs;
        a_start = Clock.now ();
      }
    in
    stack := a :: !stack;
    let finish () =
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      let attrs =
        match a.a_late with None -> a.a_attrs | Some g -> a.a_attrs @ g ()
      in
      emit
        {
          seq = a.a_seq;
          parent = a.a_parent;
          depth = a.a_depth;
          name = a.a_name;
          attrs;
          start_time = a.a_start;
          end_time = Clock.now ();
          domain = (Domain.self () :> int);
        }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = locked (fun () -> Kit.Ring.to_list !ring)

let dropped () = locked (fun () -> Kit.Ring.dropped !ring)

let pp_tree fmt () =
  let all = spans () in
  let present = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace present s.seq ()) all;
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun s ->
      match s.parent with
      | Some p when Hashtbl.mem present p ->
        Hashtbl.replace children p (s :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | Some _ | None -> roots := s :: !roots)
    all;
  let by_seq l = List.sort (fun a b -> compare a.seq b.seq) l in
  let rec pp indent s =
    Format.fprintf fmt "%s%s [%.6f..%.6f]%s%a@." indent s.name s.start_time
      s.end_time
      (if s.attrs = [] then "" else " ")
      Attr.pp_list s.attrs;
    List.iter
      (pp (indent ^ "  "))
      (by_seq (Option.value ~default:[] (Hashtbl.find_opt children s.seq)))
  in
  List.iter (pp "") (by_seq !roots)

let set_capacity capacity = locked (fun () -> ring := Kit.Ring.create ~capacity)

let reset () =
  locked (fun () -> Kit.Ring.clear !ring);
  Domain.DLS.get stack := []
