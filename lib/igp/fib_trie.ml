(* Path-compressed binary trie keyed by (address, mask length), with
   the FAQS-style installed flag maintained incrementally.

   Invariants:
   - a child's (naddr, nlen) is a strict refinement of its parent's;
   - a node with [route = None] and [nlen > 0] has both children (pure
     branch points are only created at divergences and collapsed when
     they lose a child);
   - [installed] is true iff [route = Some v] and [v] differs (under
     [eq]) from the effective value inherited from the nearest
     route-bearing ancestor (no ancestor => always installed). *)

type 'a node = {
  naddr : int;
  nlen : int;
  mutable route : 'a option;
  mutable inst : bool;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = {
  eq : 'a -> 'a -> bool;
  mutable root : 'a node option;
  mutable routes : int;
  mutable installed : int;
  mutable nodes : int;
  mutable visited : int;
}

let create ~eq = { eq; root = None; routes = 0; installed = 0; nodes = 0; visited = 0 }

let mask32 = 0xFFFFFFFF

let net_mask len = if len = 0 then 0 else mask32 lxor (mask32 lsr len)

let addr_bit a i = (a lsr (31 - i)) land 1

let bit_length x =
  let rec go n x = if x = 0 then n else go (n + 1) (x lsr 1) in
  go 0 x

(* Length of the common prefix of two (addr, len) pairs, capped at the
   shorter mask. *)
let common_bits a1 l1 a2 l2 =
  let m = min l1 l2 in
  if m = 0 then 0
  else
    let x = (a1 lxor a2) lsr (32 - m) in
    m - bit_length x

let eq_opt eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

let prefix_of n = Prefix.make ~addr:n.naddr ~len:n.nlen

let set_installed t n inst =
  if inst <> n.inst then begin
    n.inst <- inst;
    t.installed <- t.installed + (if inst then 1 else -1)
  end

(* Re-derive installed flags for the direct route children of a node
   whose effective value became [inherited]. Stops at the first route
   on every path: values below it inherit from it, not from us. *)
let rec refresh t node inherited =
  match node with
  | None -> ()
  | Some n -> (
    t.visited <- t.visited + 1;
    match n.route with
    | Some r -> set_installed t n (not (eq_opt t.eq (Some r) inherited))
    | None ->
      refresh t n.zero inherited;
      refresh t n.one inherited)

let new_leaf t ~naddr ~nlen route inherited =
  t.nodes <- t.nodes + 1;
  t.routes <- t.routes + 1;
  let inst = not (eq_opt t.eq (Some route) inherited) in
  if inst then t.installed <- t.installed + 1;
  { naddr; nlen; route = Some route; inst; zero = None; one = None }

let rec insert t node inherited pa pl v =
  match node with
  | None -> Some (new_leaf t ~naddr:pa ~nlen:pl v inherited)
  | Some n ->
    t.visited <- t.visited + 1;
    let cb = common_bits n.naddr n.nlen pa pl in
    if cb = n.nlen && cb = pl then begin
      (* Exact node. *)
      (match n.route with
      | Some old ->
        n.route <- Some v;
        set_installed t n (not (eq_opt t.eq (Some v) inherited));
        (* The effective value below n changed old -> v; children's
           flags compare against it. Equal values: nothing to do. *)
        if not (t.eq old v) then begin
          refresh t n.zero (Some v);
          refresh t n.one (Some v)
        end
      | None ->
        t.routes <- t.routes + 1;
        n.route <- Some v;
        set_installed t n (not (eq_opt t.eq (Some v) inherited));
        if not (eq_opt t.eq inherited (Some v)) then begin
          refresh t n.zero (Some v);
          refresh t n.one (Some v)
        end);
      node
    end
    else if cb = n.nlen then begin
      (* p refines n: descend. *)
      let inherited' =
        match n.route with Some r -> Some r | None -> inherited
      in
      if addr_bit pa n.nlen = 0 then
        n.zero <- insert t n.zero inherited' pa pl v
      else n.one <- insert t n.one inherited' pa pl v;
      node
    end
    else if cb = pl then begin
      (* p is a proper ancestor of n: splice a new node above. *)
      let parent = new_leaf t ~naddr:pa ~nlen:pl v inherited in
      if addr_bit n.naddr pl = 0 then parent.zero <- Some n
      else parent.one <- Some n;
      if not (eq_opt t.eq inherited (Some v)) then refresh t (Some n) (Some v);
      Some parent
    end
    else begin
      (* Divergence below both masks: routeless branch point at cb. *)
      t.nodes <- t.nodes + 1;
      let branch =
        {
          naddr = pa land net_mask cb;
          nlen = cb;
          route = None;
          inst = false;
          zero = None;
          one = None;
        }
      in
      let leaf = Some (new_leaf t ~naddr:pa ~nlen:pl v inherited) in
      if addr_bit n.naddr cb = 0 then begin
        branch.zero <- Some n;
        branch.one <- leaf
      end
      else begin
        branch.one <- Some n;
        branch.zero <- leaf
      end;
      Some branch
    end

let update t p v =
  t.root <- insert t t.root None (Prefix.addr p) (Prefix.len p) v

(* Drop a node that no longer carries a route if it has fewer than two
   children: empty nodes vanish, single-child nodes splice the child
   up (restoring path compression). *)
let collapse t n =
  match (n.route, n.zero, n.one) with
  | Some _, _, _ -> Some n
  | None, None, None ->
    t.nodes <- t.nodes - 1;
    None
  | None, Some c, None | None, None, Some c ->
    t.nodes <- t.nodes - 1;
    Some c
  | None, Some _, Some _ -> Some n

let rec delete t node inherited pa pl =
  match node with
  | None -> None
  | Some n ->
    t.visited <- t.visited + 1;
    let cb = common_bits n.naddr n.nlen pa pl in
    if cb < n.nlen then node (* diverges: prefix absent *)
    else if n.nlen = pl then (
      match n.route with
      | None -> node
      | Some r ->
        t.routes <- t.routes - 1;
        if n.inst then t.installed <- t.installed - 1;
        n.route <- None;
        n.inst <- false;
        (* Descendants now inherit [inherited] instead of r. *)
        if not (eq_opt t.eq (Some r) inherited) then begin
          refresh t n.zero inherited;
          refresh t n.one inherited
        end;
        collapse t n)
    else begin
      let inherited' =
        match n.route with Some r -> Some r | None -> inherited
      in
      if addr_bit pa n.nlen = 0 then
        n.zero <- delete t n.zero inherited' pa pl
      else n.one <- delete t n.one inherited' pa pl;
      collapse t n
    end

let remove t p = t.root <- delete t t.root None (Prefix.addr p) (Prefix.len p)

let covers_addr n a = n.nlen = 0 || (a lxor n.naddr) lsr (32 - n.nlen) = 0

let lookup_gen t ~only_installed a =
  let best = ref None in
  let rec go node =
    match node with
    | None -> ()
    | Some n ->
      if covers_addr n a then begin
        (match n.route with
        | Some r when (not only_installed) || n.inst ->
          best := Some (prefix_of n, r)
        | _ -> ());
        if n.nlen < 32 then
          go (if addr_bit a n.nlen = 0 then n.zero else n.one)
      end
  in
  go t.root;
  !best

let lookup t a = lookup_gen t ~only_installed:false a

let lookup_aggregated t a = lookup_gen t ~only_installed:true a

let lookup_within t p =
  let pa = Prefix.addr p and pl = Prefix.len p in
  let best = ref None in
  let rec go node =
    match node with
    | None -> ()
    | Some n ->
      if n.nlen <= pl && covers_addr n pa then begin
        (match n.route with
        | Some r -> best := Some (prefix_of n, r)
        | None -> ());
        if n.nlen < pl then
          go (if addr_bit pa n.nlen = 0 then n.zero else n.one)
      end
  in
  go t.root;
  !best

let visited t = t.visited

type stats = {
  routes : int;
  installed : int;
  nodes : int;
  ratio : float;
  approx_bytes : int;
}

let stats (t : _ t) =
  let word = 8 in
  (* Per node: record header + 6 fields; each live child link and each
     route is a 2-word [Some] cell. Route payloads excluded. *)
  let links = if t.nodes = 0 then 0 else t.nodes - 1 in
  {
    routes = t.routes;
    installed = t.installed;
    nodes = t.nodes;
    ratio =
      (if t.installed = 0 then 1.0
       else float_of_int t.routes /. float_of_int t.installed);
    approx_bytes = word * ((t.nodes * 7) + (links * 2) + (t.routes * 2));
  }
