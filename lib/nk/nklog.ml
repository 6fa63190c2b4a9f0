type record = { seq : int; offset : int; old : string; data : string }

type t = { mutable rev_records : record list; mutable next_seq : int }

let create () = { rev_records = []; next_seq = 0 }

let append t ~offset ~old ~data =
  let r =
    {
      seq = t.next_seq;
      offset;
      old = Bytes.to_string old;
      data = Bytes.to_string data;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.rev_records <- r :: t.rev_records

let length t = t.next_seq
let records t = List.rev t.rev_records

let replay t ~initial ~upto =
  let buf = Bytes.copy initial in
  List.iter
    (fun r ->
      if r.seq < upto then
        Bytes.blit_string r.data 0 buf r.offset (String.length r.data))
    (records t);
  buf

let writes_touching t ~offset ~len =
  List.filter
    (fun r ->
      let rlen = String.length r.data in
      r.offset < offset + len && offset < r.offset + rlen)
    (records t)
