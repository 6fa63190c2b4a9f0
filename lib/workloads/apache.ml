(* Figure 6 workload, served the way a 2015 Apache event MPM actually
   works: a worker process running the epoll readiness loop over 32
   keep-alive client connections.  Each request costs a parse, an
   open, and a sendfile-style block loop (file read + DMA setup per
   block) streamed against the connection's send window; every 16th
   request recycles the worker's scratch buffers with a demand-paged
   mmap — the only vMMU traffic on the serving path, and the place a
   nested-kernel configuration can show up.  Bandwidth is then the
   measured CPU seconds overlapped against the modelled wire. *)

open Nkhw
open Outer_kernel

type point = {
  size_kb : int;
  native_mb_s : float;
  relative : (Config.t * float) list;
  cpu_overhead_pct : float;
}

let sizes_kb =
  [ 1; 4; 16; 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576 ]

let concurrency = 32
let wire_bytes_per_sec = 112.0e6
let per_request_rtt_s = 120.0e-6 (* connection turn-around on the LAN *)
let sendfile_block = 64 * 1024
let req_wire_bytes = 256 (* one GET on the wire *)

let ok = function
  | Ok v -> v
  | Error e -> failwith ("apache: " ^ Ktypes.errno_to_string e)

let request_counter = ref 0

type client = {
  conn : Socket.conn;
  mutable busy : bool;
  mutable got : int;
}

(* One worker serving [path] over the readiness loop. *)
let make_server k (worker : Proc.t) ~path ~size =
  let m = k.Kernel.machine in
  let files = Hashtbl.create concurrency in
  (* conn fd -> file fd *)
  let respond ~fd _conn =
    (* request parse *)
    Machine.charge m 1500;
    ignore (ok (Syscalls.getpid k worker));
    (* Occasionally the worker recycles its scratch buffers: a demand-
       paged allocation whose faults are the only vMMU traffic on the
       serving path. *)
    incr request_counter;
    if !request_counter mod 16 = 0 then begin
      let buf =
        ok
          (Syscalls.mmap k worker ~len:(4 * Addr.page_size) ~rw:true
             ~populate:false ())
      in
      for i = 0 to 3 do
        ok (Kernel.touch_user k worker (buf + (i * Addr.page_size)) Fault.Write)
      done;
      ignore (ok (Syscalls.munmap k worker buf))
    end;
    let ffd = ok (Syscalls.open_ k worker path) in
    Hashtbl.replace files fd ffd;
    size
  in
  let on_block ~fd n =
    (* sendfile: pull the next file block, then DMA setup for the
       zero-copy-ish transmit. *)
    (match Hashtbl.find_opt files fd with
    | Some ffd -> ignore (ok (Syscalls.read k worker ffd n))
    | None -> ());
    Machine.charge m 900
  in
  let release ~fd =
    match Hashtbl.find_opt files fd with
    | Some ffd ->
        ignore (Syscalls.close k worker ffd);
        Hashtbl.remove files fd
    | None -> ()
  in
  Evloop.create ~backlog:(2 * concurrency) ~tx_block:sendfile_block k worker
    (Evloop.app ~req_size:req_wire_bytes ~on_block ~on_done:release
       ~on_close:release respond)

let measure_cpu config ~requests ~size =
  let path = "/srv/doc" in
  let k = Os.boot_with_files config [ (path, size) ] in
  let m = k.Kernel.machine in
  let worker = Kernel.current_proc k in
  let ev = make_server k worker ~path ~size in
  let clients =
    Array.init concurrency (fun _ ->
        match Socket.connect (Evloop.listener ev) ~cpu:0 with
        | Some conn -> { conn; busy = false; got = 0 }
        | None -> failwith "apache: connect refused during setup")
  in
  while Evloop.accepted ev < concurrency do
    ignore (Evloop.step ev)
  done;
  let serve n =
    let issued = ref 0 and completed = ref 0 in
    while !completed < n do
      Array.iter
        (fun cl ->
          if (not cl.busy) && !issued < n then begin
            Socket.send_request cl.conn req_wire_bytes;
            cl.busy <- true;
            cl.got <- 0;
            incr issued
          end)
        clients;
      ignore (Evloop.step ev ~maxev:(2 * concurrency));
      Array.iter
        (fun cl ->
          if cl.busy then begin
            cl.got <- cl.got + Socket.drain_response cl.conn;
            if cl.got >= size then begin
              cl.busy <- false;
              incr completed
            end
          end)
        clients
    done
  in
  serve 1 (* warm-up, as before *);
  let w = Window.start m in
  serve requests;
  Costs.cycles_to_s (Window.cycles w)

let bandwidth ~requests ~size ~cpu_s =
  let total_bytes = float_of_int (requests * size) in
  let wire_s = total_bytes /. wire_bytes_per_sec in
  let rtt_s =
    float_of_int requests *. per_request_rtt_s /. float_of_int concurrency
  in
  (* The server core overlaps the network; whichever resource is
     saturated bounds throughput. *)
  let elapsed = Float.max (wire_s +. rtt_s) cpu_s in
  total_bytes /. elapsed /. 1.0e6

let nested_configs =
  [ Config.Perspicuos; Config.Append_only; Config.Write_once; Config.Write_log ]

let run ?(requests = 64) () =
  List.map
    (fun size_kb ->
      let size = size_kb * 1024 in
      (* Keep the total transferred volume bounded for huge files. *)
      let requests = max 4 (min requests (16384 / max 1 (size_kb / 64))) in
      let native_cpu = measure_cpu Config.Native ~requests ~size in
      let native = bandwidth ~requests ~size ~cpu_s:native_cpu in
      let perspicuos_cpu =
        measure_cpu Config.Perspicuos ~requests ~size
      in
      let relative =
        List.map
          (fun config ->
            let cpu_s =
              if config = Config.Perspicuos then perspicuos_cpu
              else measure_cpu config ~requests ~size
            in
            (config, bandwidth ~requests ~size ~cpu_s /. native))
          nested_configs
      in
      {
        size_kb;
        native_mb_s = native;
        relative;
        cpu_overhead_pct =
          Stats.pct_overhead ~native:native_cpu ~sys:perspicuos_cpu;
      })
    sizes_kb

let to_table points =
  {
    Stats.title =
      "Figure 6: Apache (ab, 32 concurrent) bandwidth relative to native";
    columns =
      "file size (KB)" :: "native MB/s"
      :: List.map Config.name nested_configs
      @ [ "hidden CPU ovh %" ];
    rows =
      List.map
        (fun p ->
          string_of_int p.size_kb
          :: Printf.sprintf "%.1f" p.native_mb_s
          :: List.map (fun (_, r) -> Stats.f2 r) p.relative
          @ [ Stats.f1 p.cpu_overhead_pct ])
        points;
    notes =
      [
        "paper reports overheads within measurement stddev at all sizes";
        "hidden CPU ovh: extra server CPU absorbed by network overlap";
        "served by the epoll readiness loop (event MPM): keep-alive \
         connections, sendfile block streaming against the send window";
      ];
  }
