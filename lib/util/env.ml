(* Environment knobs with misconfiguration reporting. A deployment that sets
   TVS_JOBS to garbage used to run silently at the default parallelism; now
   every unparseable value is reported once per distinct value on stderr and
   through an installable hook (tvs_obs routes it into a metrics counter),
   while the knob still falls back to its default. *)

let mutex = Mutex.create ()

(* key -> last value we warned about: repeated reads of the same bad value
   (pool and fault-sim contexts are created freely in hot paths) warn once,
   while a changed-but-still-bad value warns again. *)
let warned : (string, string) Hashtbl.t = Hashtbl.create 4
let warnings = Atomic.make 0
let hook : (key:string -> value:string -> unit) option ref = ref None

let set_warning_hook h = hook := h
let warning_count () = Atomic.get warnings

let warn ~key ~value ~fallback =
  let fresh =
    Mutex.protect mutex (fun () ->
        match Hashtbl.find_opt warned key with
        | Some v when String.equal v value -> false
        | _ ->
            Hashtbl.replace warned key value;
            true)
  in
  if fresh then begin
    Atomic.incr warnings;
    (match !hook with Some f -> f ~key ~value | None -> ());
    Printf.eprintf "tvs: warning: %s=%S is not a positive integer; falling back to %s\n%!" key
      value fallback
  end

let positive_int ?(fallback = "the built-in default") key =
  match Sys.getenv_opt key with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> Some v
      | Some _ | None ->
          warn ~key ~value:s ~fallback;
          None)
