type event = {
  time : float;
  seq : int;
  source : string;
  kind : string;
  attrs : Attr.t list;
}

let default_capacity = 65536

(* Same sharing discipline as Trace: the global ring is cross-domain and
   mutex-guarded; capture-scope buffers are domain-confined and
   lock-free. *)
let mu = Mutex.create ()

let ring : event Kit.Ring.t ref = ref (Kit.Ring.create ~capacity:default_capacity)

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

(* Capture scopes, innermost first: recorded events go to the top
   scope's buffer (newest first) instead of the global ring. *)
let scopes : event list ref list ref Domain.DLS.key =
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

let record ?time ~source ~kind attrs =
  if Atomic.get State.enabled then begin
    let time = match time with Some t -> t | None -> Clock.now () in
    let e = { time; seq = State.fresh_seq (); source; kind; attrs } in
    match !(Domain.DLS.get scopes) with
    | buf :: _ -> buf := e :: !buf
    | [] -> locked (fun () -> Kit.Ring.push !ring e)
  end

let span_event (s : Trace.span) =
  {
    time = s.start_time;
    seq = s.seq;
    source = "trace";
    kind = s.name;
    attrs =
      s.attrs
      @ [ ("duration_ms", Attr.Float ((s.end_time -. s.start_time) *. 1000.)) ];
  }

let merge ~events ~spans =
  List.sort
    (fun a b -> compare a.seq b.seq)
    (events @ List.map span_event spans)

let events ?(include_spans = true) () =
  let own = locked (fun () -> Kit.Ring.to_list !ring) in
  merge ~events:own ~spans:(if include_spans then Trace.spans () else [])

let render_json_lines events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seq\":%d,\"time\":%.6f,\"source\":\"%s\",\"kind\":\"%s\",\"attrs\":%s}\n"
           e.seq e.time (Attr.escape e.source) (Attr.escape e.kind)
           (Attr.list_to_json e.attrs)))
    events;
  Buffer.contents buf

let to_json_lines ?include_spans () = render_json_lines (events ?include_spans ())

let pp_table ?include_spans fmt () =
  Format.fprintf fmt "%10s  %-12s %-18s %s@." "time" "source" "kind" "attrs";
  List.iter
    (fun e ->
      Format.fprintf fmt "%10.3f  %-12s %-18s %a@." e.time e.source e.kind
        Attr.pp_list e.attrs)
    (events ?include_spans ())

let reset () = locked (fun () -> Kit.Ring.clear !ring)
