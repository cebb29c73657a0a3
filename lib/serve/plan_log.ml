type t = {
  path : string;
  mutex : Mutex.t;
  mutable oc : out_channel option;
  mutable appended : int;
}

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path

let open_log path =
  { path; mutex = Mutex.create (); oc = Some (open_append path); appended = 0 }

let path t = t.path

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let plan_line (k : Store.Plan_store.key) =
  Printf.sprintf "P %d %d %d %d %d\n" k.p k.k k.s k.l k.u

let sched_line (k : Store.Sched_store.key) =
  let slo, shi, sst = k.ssec and dlo, dhi, dst = k.dsec in
  Printf.sprintf "S %d %d %d %d %d %d %d %d %d %d\n" k.sp k.sk slo shi sst k.dp
    k.dk dlo dhi dst

let append t line =
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          output_string oc line;
          t.appended <- t.appended + 1)

let append_plan t key = append t (plan_line key)
let append_sched t key = append t (sched_line key)
let appended t = with_lock t (fun () -> t.appended)

let flush t =
  with_lock t (fun () -> match t.oc with None -> () | Some oc -> flush oc)

let close t =
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          t.oc <- None;
          close_out oc)

(* A line warms at most one store entry; anything unparsable or invalid
   is skipped so a torn tail never poisons startup. *)
let replay_line ~plans ~scheds line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "P"; p; k; s; l; u ] -> (
      match
        {
          Wire.p = int_of_string p;
          k = int_of_string k;
          s = int_of_string s;
          l = int_of_string l;
          u = int_of_string u;
        }
      with
      | req -> (
          match Store.Plan_store.key_of_req req with
          | Ok (key, _, _) ->
              ignore (Store.Plan_store.find_key plans key);
              true
          | Error _ -> false)
      | exception Failure _ -> false)
  | [ "S"; sp; sk; slo; shi; sst; dp; dk; dlo; dhi; dst ] -> (
      match
        {
          Wire.src_p = int_of_string sp;
          src_k = int_of_string sk;
          src_lo = int_of_string slo;
          src_hi = int_of_string shi;
          src_stride = int_of_string sst;
          dst_p = int_of_string dp;
          dst_k = int_of_string dk;
          dst_lo = int_of_string dlo;
          dst_hi = int_of_string dhi;
          dst_stride = int_of_string dst;
        }
      with
      | req -> (
          match Store.Sched_store.key_of_req req with
          | Ok (key, _, _) ->
              ignore (Store.Sched_store.find_key scheds key);
              true
          | Error _ -> false)
      | exception Failure _ -> false)
  | _ -> false

let replay path ~plans ~scheds =
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let warmed = ref 0 in
          (try
             while true do
               if replay_line ~plans ~scheds (input_line ic) then incr warmed
             done
           with End_of_file -> ());
          !warmed)

let rotate t ~plans ~scheds =
  with_lock t (fun () ->
      let tmp = t.path ^ ".tmp" in
      let oc = open_out tmp in
      Lams_core.Plan_cache.Lru.iter_keys plans (fun k ->
          output_string oc (plan_line k));
      Lams_sched.Cache.Lru.iter_keys scheds (fun k ->
          output_string oc (sched_line k));
      close_out oc;
      (match t.oc with
      | None -> ()
      | Some old ->
          t.oc <- None;
          close_out old);
      Sys.rename tmp t.path;
      t.oc <- Some (open_append t.path);
      t.appended <- 0)
