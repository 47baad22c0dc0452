module Interval_buf = Tcpfo_util.Interval_buf
module Seq32 = Tcpfo_util.Seq32

let base100 () = Interval_buf.create ~base:(Seq32.of_int 100)

let test_in_order () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "abc";
  Testutil.check_int "contig" 3 (Interval_buf.contiguous_length b);
  Testutil.check_string "pop" "abc" (Interval_buf.pop b ~max_len:10);
  Testutil.check_int "base moved" 103 (Seq32.to_int (Interval_buf.base b))

let test_gap_then_fill () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 105) "xyz";
  Testutil.check_int "gap blocks" 0 (Interval_buf.contiguous_length b);
  Testutil.check_int "buffered" 3 (Interval_buf.total_buffered b);
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "abcde";
  Testutil.check_int "filled" 8 (Interval_buf.contiguous_length b);
  Testutil.check_string "pop all" "abcdexyz" (Interval_buf.pop b ~max_len:100)

let test_overlap_first_write_wins () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "AAAA";
  Interval_buf.insert b ~seq:(Seq32.of_int 102) "bbbb";
  Testutil.check_string "overlap" "AAAAbb" (Interval_buf.pop b ~max_len:100)

let test_clip_below_base () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 95) "0123456789";
  (* bytes 95..99 clipped; 100..104 = "56789" *)
  Testutil.check_string "clipped" "56789" (Interval_buf.pop b ~max_len:100)

let test_drop () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 100) "abcdef";
  Interval_buf.drop b ~len:4;
  Testutil.check_string "rest" "ef" (Interval_buf.pop b ~max_len:100)

let test_has_byte () =
  let b = base100 () in
  Interval_buf.insert b ~seq:(Seq32.of_int 105) "xy";
  Testutil.check_bool "at 105" true (Interval_buf.has_byte b (Seq32.of_int 105));
  Testutil.check_bool "at 107" false (Interval_buf.has_byte b (Seq32.of_int 107));
  Testutil.check_bool "below base" false (Interval_buf.has_byte b (Seq32.of_int 99))

let test_wraparound () =
  let near_top = Seq32.of_int 0xFFFF_FFFD in
  let b = Interval_buf.create ~base:near_top in
  Interval_buf.insert b ~seq:near_top "012345";
  Testutil.check_string "across wrap" "012345" (Interval_buf.pop b ~max_len:100);
  Testutil.check_int "base wrapped" 3 (Seq32.to_int (Interval_buf.base b))

(* Property: inserting arbitrary (possibly overlapping, out of order)
   chunks of one master string at their true offsets always reassembles to
   a prefix of the master string, and reassembles completely if the chunks
   cover it. *)
let prop_reassembly =
  let gen =
    QCheck.Gen.(
      let* len = int_range 1 400 in
      let master = String.init len (fun i -> Char.chr (65 + (i mod 26))) in
      let* n = int_range 1 30 in
      let* chunks =
        list_repeat n
          (let* off = int_range 0 (len - 1) in
           let* clen = int_range 1 (len - off) in
           return (off, clen))
      in
      return (master, chunks))
  in
  QCheck.Test.make ~name:"reassembly yields prefix of master" ~count:300
    (QCheck.make gen) (fun (master, chunks) ->
      let base = Seq32.of_int 5000 in
      let b = Interval_buf.create ~base in
      List.iter
        (fun (off, clen) ->
          Interval_buf.insert b ~seq:(Seq32.add base off)
            (String.sub master off clen))
        chunks;
      let out = Interval_buf.pop b ~max_len:max_int in
      String.length out <= String.length master
      && String.sub master 0 (String.length out) = out)

let prop_full_cover =
  let gen =
    QCheck.Gen.(
      let* len = int_range 1 300 in
      let master = String.init len (fun i -> Char.chr (48 + (i mod 10))) in
      (* random permutation of consecutive chunks *)
      let* sizes =
        let rec cut acc remaining =
          if remaining = 0 then return (List.rev acc)
          else
            let* c = int_range 1 remaining in
            cut (c :: acc) (remaining - c)
        in
        cut [] len
      in
      let offs =
        List.rev
          (snd
             (List.fold_left
                (fun (off, acc) sz -> (off + sz, (off, sz) :: acc))
                (0, []) sizes))
      in
      let* shuffled = shuffle_l offs in
      return (master, shuffled))
  in
  QCheck.Test.make ~name:"covering chunks reassemble exactly" ~count:300
    (QCheck.make gen) (fun (master, chunks) ->
      let base = Seq32.of_int 0xFFFF_FF00 (* crosses the wrap *) in
      let b = Interval_buf.create ~base in
      List.iter
        (fun (off, clen) ->
          Interval_buf.insert b ~seq:(Seq32.add base off)
            (String.sub master off clen))
        chunks;
      Interval_buf.pop b ~max_len:max_int = master)

(* Model-based property: random operation sequences against a naive
   reference, a map from sequence number to byte.  After every operation
   all observers must agree with the model. *)
module Model = struct
  type t = { mutable base : Seq32.t; bytes : (int, char) Hashtbl.t }

  (* every stored byte lies within [window] bytes of [base] *)
  let window = 1024

  let create base = { base; bytes = Hashtbl.create 64 }
  let mem m s = Hashtbl.mem m.bytes (Seq32.to_int s)

  let insert m ~seq data =
    String.iteri
      (fun k c ->
        let s = Seq32.add seq k in
        if Seq32.ge s m.base && not (mem m s) then
          Hashtbl.replace m.bytes (Seq32.to_int s) c)
      data

  let contiguous_length m =
    let rec go n = if mem m (Seq32.add m.base n) then go (n + 1) else n in
    go 0

  let peek m ~max_len =
    String.init
      (min max_len (contiguous_length m))
      (fun k -> Hashtbl.find m.bytes (Seq32.to_int (Seq32.add m.base k)))

  let drop m ~len =
    if len > 0 then begin
      for k = 0 to len - 1 do
        Hashtbl.remove m.bytes (Seq32.to_int (Seq32.add m.base k))
      done;
      m.base <- Seq32.add m.base len
    end

  let pop m ~max_len =
    let s = peek m ~max_len in
    drop m ~len:(String.length s);
    s

  (* maximal runs of present bytes, in order from [base] *)
  let islands m =
    let runs = ref [] and cur = Buffer.create 16 and start = ref m.base in
    let close () =
      if Buffer.length cur > 0 then begin
        runs := (!start, Buffer.contents cur) :: !runs;
        Buffer.clear cur
      end
    in
    for k = 0 to window do
      let s = Seq32.add m.base k in
      match Hashtbl.find_opt m.bytes (Seq32.to_int s) with
      | Some c ->
        if Buffer.length cur = 0 then start := s;
        Buffer.add_char cur c
      | None -> close ()
    done;
    List.rev !runs
end

type op =
  | Insert of int * string (* offset from the current base, bytes *)
  | Peek of int
  | Pop of int
  | Drop of int

let show_op = function
  | Insert (off, d) -> Printf.sprintf "insert base%+d %S" off d
  | Peek n -> Printf.sprintf "peek %d" n
  | Pop n -> Printf.sprintf "pop %d" n
  | Drop n -> Printf.sprintf "drop %d" n

let prop_model =
  let open QCheck.Gen in
  let max_len =
    frequency
      [ (2, return max_int); (1, return 0); (3, int_range 1 16);
        (4, int_range 1 600) ]
  in
  let op =
    frequency
      [
        ( 5,
          let* off = int_range (-64) 512 in
          let* len = int_range 1 200 in
          let* data = string_size ~gen:(char_range 'a' 'z') (return len) in
          return (Insert (off, data)) );
        (2, map (fun n -> Peek n) max_len);
        (2, map (fun n -> Pop n) max_len);
        (1, map (fun n -> Drop n) (int_range 0 600));
      ]
  in
  let gen =
    pair
      (oneof
         [ return 0; return 0xFFFF_FF00; return 0xFFFF_FFFF;
           int_range 0 0xFFFF_FFFF ])
      (list_size (int_range 1 60) op)
  in
  let print (b, ops) =
    Printf.sprintf "base %d: %s" b (String.concat "; " (List.map show_op ops))
  in
  QCheck.Test.make ~name:"random ops agree with a byte-map model" ~count:500
    (QCheck.make ~print gen) (fun (b0, ops) ->
      let b = Interval_buf.create ~base:(Seq32.of_int b0) in
      let m = Model.create (Seq32.of_int b0) in
      let fail op what =
        QCheck.Test.fail_reportf "after %s: %s differs (buffer %a)"
          (show_op op) what Interval_buf.pp b
      in
      let check op =
        let islands = Model.islands m in
        if not (Seq32.equal (Interval_buf.base b) m.base) then fail op "base";
        if Interval_buf.contiguous_length b <> Model.contiguous_length m then
          fail op "contiguous_length";
        if Interval_buf.total_buffered b <> Hashtbl.length m.bytes then
          fail op "total_buffered";
        if Interval_buf.is_empty b <> (Hashtbl.length m.bytes = 0) then
          fail op "is_empty";
        if
          Interval_buf.spans b
          <> List.map (fun (s, d) -> (s, String.length d)) islands
        then fail op "spans";
        if Interval_buf.islands b <> islands then fail op "islands";
        List.iter
          (fun k ->
            let s = Seq32.add m.base k in
            if Interval_buf.has_byte b s <> Model.mem m s then
              fail op (Printf.sprintf "has_byte base%+d" k))
          [ -1; 0; 1; 63; 200; 511; 700 ]
      in
      List.iter
        (fun op ->
          (match op with
          | Insert (off, data) ->
            let seq = Seq32.add m.base off in
            Interval_buf.insert b ~seq data;
            Model.insert m ~seq data
          | Peek n ->
            if Interval_buf.peek b ~max_len:n <> Model.peek m ~max_len:n then
              fail op "result"
          | Pop n ->
            if Interval_buf.pop b ~max_len:n <> Model.pop m ~max_len:n then
              fail op "result"
          | Drop n ->
            Interval_buf.drop b ~len:n;
            Model.drop m ~len:n);
          check op)
        ops;
      true)

(* peek/pop hand back the caller's own string when the request covers
   exactly one whole inserted string. *)
let test_whole_slice_not_copied () =
  let b = base100 () in
  let x = Testutil.pattern ~tag:1 1460 and y = Testutil.pattern ~tag:2 1460 in
  Interval_buf.insert b ~seq:(Seq32.of_int 100) x;
  Interval_buf.insert b ~seq:(Seq32.of_int 1560) y;
  Testutil.check_bool "peek is x" true (Interval_buf.peek b ~max_len:1460 == x);
  Testutil.check_bool "pop is x" true (Interval_buf.pop b ~max_len:1460 == x);
  Testutil.check_bool "pop is y" true
    (Interval_buf.pop b ~max_len:max_int == y)

(* Bytes allocated so far by this domain.  Not [Gc.allocated_bytes]: on
   OCaml 5.1 its minor part counts the not yet collected part of the minor
   heap at an eighth of its size. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* The primary bridge's output matching (§3.4): one replica runs a
   64-segment window ahead of the other; every arriving segment is
   matched by MSS-sized pops on the primary's queue and a drop on the
   secondary's.  With segment-aligned pops nothing needs copying, so the
   allocation must stay below one copy of the merged bytes, whatever the
   backlog. *)
let bridge_backlog_alloc ~primary_ahead () =
  let mss = 1460 and window = 64 and rounds = 2000 in
  let payload = Testutil.pattern ~tag:3 mss in
  let pq = Interval_buf.create ~base:Seq32.zero in
  let sq = Interval_buf.create ~base:Seq32.zero in
  let lead, lag = if primary_ahead then (pq, sq) else (sq, pq) in
  let seg k = Seq32.of_int (k * mss) in
  for k = 0 to window - 1 do
    Interval_buf.insert lead ~seq:(seg k) payload
  done;
  let merged = ref 0 in
  let before = allocated_bytes () in
  for k = 0 to rounds - 1 do
    Interval_buf.insert lead ~seq:(seg (window + k)) payload;
    Interval_buf.insert lag ~seq:(seg k) payload;
    let rec pump () =
      let common =
        min
          (Interval_buf.contiguous_length pq)
          (Interval_buf.contiguous_length sq)
      in
      if common > 0 then begin
        let len = min common mss in
        merged := !merged + String.length (Interval_buf.pop pq ~max_len:len);
        Interval_buf.drop sq ~len;
        pump ()
      end
    in
    pump ()
  done;
  let allocated = allocated_bytes () -. before in
  Testutil.check_int "merged every lagging byte" (rounds * mss) !merged;
  Testutil.check_int "leader keeps its window" (window * mss)
    (Interval_buf.total_buffered lead);
  if allocated > float_of_int (rounds * mss) then
    Alcotest.failf "allocated %.0f bytes to merge %d payload bytes (%.1fx)"
      allocated (rounds * mss)
      (allocated /. float_of_int (rounds * mss))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "in-order insert/pop" `Quick test_in_order;
    Alcotest.test_case "gap blocks, fill releases" `Quick test_gap_then_fill;
    Alcotest.test_case "overlap: first write wins" `Quick
      test_overlap_first_write_wins;
    Alcotest.test_case "bytes below base are clipped" `Quick
      test_clip_below_base;
    Alcotest.test_case "drop advances base" `Quick test_drop;
    Alcotest.test_case "has_byte island query" `Quick test_has_byte;
    Alcotest.test_case "sequence wraparound" `Quick test_wraparound;
    Alcotest.test_case "whole inserted string is not copied" `Quick
      test_whole_slice_not_copied;
    Alcotest.test_case "bridge backlog allocation linear (primary ahead)"
      `Quick
      (bridge_backlog_alloc ~primary_ahead:true);
    Alcotest.test_case "bridge backlog allocation linear (secondary ahead)"
      `Quick
      (bridge_backlog_alloc ~primary_ahead:false);
    q prop_reassembly;
    q prop_full_cover;
    q prop_model;
  ]
