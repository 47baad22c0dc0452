(* Invariant: [islands] is sorted by modular order relative to [base];
   islands are non-overlapping and never adjacent (adjacent islands are
   merged on insert), every island starts at or after [base], and every
   island holds at least one byte.

   An island does not own its bytes: it is a chain of slices, each a
   window [off, off+len) of a string some caller inserted.  Inserting
   links a slice, merging two islands links their chains, and dropping
   advances the first slice or unlinks whole slices, so none of them copy
   a byte.  Bytes are copied only when [peek]/[pop]/[islands] must cut a
   slice or join several into one result string. *)

type chain =
  | Nil
  | Slice of {
      str : string;
      mutable off : int;
      mutable len : int; (* > 0 *)
      mutable next : chain;
    }

type island = {
  mutable start : Seq32.t;
  mutable size : int; (* sum of the slices' [len] *)
  mutable first : chain; (* never [Nil] *)
  mutable last : chain; (* never [Nil]; its [next] is [Nil] *)
}

type t = {
  mutable base : Seq32.t;
  mutable islands : island list; (* sorted by start *)
}

let create ~base = { base; islands = [] }
let base t = t.base

let island_end i = Seq32.add i.start i.size
let imin (a : int) b = if a <= b then a else b

let singleton seq str off len =
  let s = Slice { str; off; len; next = Nil } in
  { start = seq; size = len; first = s; last = s }

let link c next =
  match c with Slice s -> s.next <- next | Nil -> invalid_arg "Interval_buf.link"

let append i str off len =
  let s = Slice { str; off; len; next = Nil } in
  link i.last s;
  i.last <- s;
  i.size <- i.size + len

(* Link [b]'s chain after [a]'s; [b] must start where [a] ends. *)
let absorb a b =
  link a.last b.first;
  a.last <- b.last;
  a.size <- a.size + b.size

(* Discard the first [n] bytes of [i], 0 < n < i.size. *)
let advance i n =
  let rec go c n =
    match c with
    | Slice s when n >= s.len -> go s.next (n - s.len)
    | Slice s ->
      s.off <- s.off + n;
      s.len <- s.len - n;
      c
    | Nil -> c
  in
  i.first <- go i.first n;
  i.start <- Seq32.add i.start n;
  i.size <- i.size - n

(* The first [n] bytes of [i] as one string, 0 < n <= i.size.  A whole
   inserted string comes back as itself ([n <= len] leaves no room for a
   nonzero [off] there). *)
let prefix i n =
  match i.first with
  | Slice s when n <= s.len ->
    if n = String.length s.str then s.str
    else String.sub s.str s.off n
  | first ->
    let b = Bytes.create n in
    let rec fill c pos =
      match c with
      | Slice s when pos < n ->
        let k = imin s.len (n - pos) in
        Bytes.blit_string s.str s.off b pos k;
        fill s.next (pos + k)
      | Slice _ | Nil -> ()
    in
    fill first 0;
    Bytes.unsafe_to_string b

let rec last_island i = function [] -> i | j :: rest -> last_island j rest

(* Walk the sorted island list, splicing in [str]'s window [off, off+len)
   at [seq] as new islands.  Existing bytes win on overlap.  Unchanged
   suffixes of the list are shared, not rebuilt. *)
let rec splice seq str off len islands =
  match islands with
  | [] -> [ singleton seq str off len ]
  | i :: rest ->
    let ie = island_end i in
    if Seq32.le (Seq32.add seq len) i.start then
      (* entirely before island i *)
      singleton seq str off len :: islands
    else if Seq32.ge seq ie then
      (* entirely after island i *)
      i :: splice seq str off len rest
    else begin
      (* overlap with island i: keep i's bytes, splice in the
         non-overlapping head/tail of the new window *)
      let cut = Seq32.diff ie seq in
      let tl =
        if cut < len then i :: splice ie str (off + cut) (len - cut) rest
        else islands
      in
      let n = Seq32.diff i.start seq in
      if n > 0 then singleton seq str off n :: tl else tl
    end

(* Join adjacent islands; returns the list itself when nothing joins. *)
let rec merge l =
  match l with
  | a :: (b :: rest as tl) ->
    if Seq32.equal (island_end a) b.start then begin
      absorb a b;
      merge (a :: rest)
    end
    else
      let tl' = merge tl in
      if tl' == tl then l else a :: tl'
  | [ _ ] | [] -> l

let insert t ~seq data =
  let dlen = String.length data in
  (* clip the part below [base] *)
  let cut = Seq32.diff t.base seq in
  let off = if cut > 0 then cut else 0 in
  if off < dlen then begin
    let seq = if off > 0 then t.base else seq in
    let len = dlen - off in
    match t.islands with
    | [] -> t.islands <- [ singleton seq data off len ]
    | i :: rest as islands ->
      let last = last_island i rest in
      (* nothing lies beyond the last island, so an append there cannot
         overlap or merge with anything else *)
      if Seq32.equal seq (island_end last) then append last data off len
      else t.islands <- merge (splice seq data off len islands)
  end

let contiguous_length t =
  match t.islands with
  | i :: _ when Seq32.equal i.start t.base -> i.size
  | _ -> 0

let peek t ~max_len =
  match t.islands with
  | i :: _ when Seq32.equal i.start t.base && max_len > 0 ->
    prefix i (imin max_len i.size)
  | _ -> ""

let drop t ~len =
  if len > 0 then begin
    let new_base = Seq32.add t.base len in
    let rec go = function
      | [] -> []
      | i :: rest as l ->
        if Seq32.le (island_end i) new_base then go rest
        else begin
          let cut = Seq32.diff new_base i.start in
          if cut > 0 then advance i cut;
          l
        end
    in
    t.islands <- go t.islands;
    t.base <- new_base
  end

let pop t ~max_len =
  let s = peek t ~max_len in
  drop t ~len:(String.length s);
  s

let total_buffered t = List.fold_left (fun acc i -> acc + i.size) 0 t.islands
let is_empty t = match t.islands with [] -> true | _ :: _ -> false

let has_byte t s =
  Seq32.ge s t.base
  && List.exists
       (fun i -> Seq32.ge s i.start && Seq32.lt s (island_end i))
       t.islands

let spans t = List.map (fun i -> (i.start, i.size)) t.islands
let islands t = List.map (fun i -> (i.start, prefix i i.size)) t.islands

let pp fmt t =
  Format.fprintf fmt "@[<h>base=%a" Seq32.pp t.base;
  List.iter
    (fun i -> Format.fprintf fmt " [%a,+%d)" Seq32.pp i.start i.size)
    t.islands;
  Format.fprintf fmt "@]"
