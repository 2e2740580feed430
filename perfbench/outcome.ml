(* What one pass of a workload produced. Host times are raw seconds;
   main.ml calibrates them. Everything else is simulated output and must
   be identical on every pass of the same seed. *)

type t = {
  units : int;  (** MC trials, completed requests or campaign replicates. *)
  replicate_s : float array;  (** Host seconds per replicate, in block order. *)
  inner_setup_s : float;
      (** Construction done inside the timed phase (campaign trials build
          their own systems); counted into set-up time. *)
  sim : (string * float) list;  (** sim_* metrics and msgs_per_req. *)
  counts : (string * float) list;  (** Per-layer counts. *)
  digest : string;  (** Hex digest of every simulated output. *)
  attempted : int;  (** Operations: replicates, estimates or trials. *)
  failures : string list;  (** One reason per failed operation. *)
}

(* One pass's timed phase, cut into blocks so that the host calibrator can
   run between them. Each block returns how many replicates it ran; their
   times appear in [replicate_s] in block order. [finish] reduces and
   checks what the blocks simulated, after the timing. *)
type plan = { blocks : (unit -> int) list; finish : unit -> t }

(* Canonical text of simulated outputs, digested at the end. *)
let digest_of lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Time [f] in raw host seconds. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)
