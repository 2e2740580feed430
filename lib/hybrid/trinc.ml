module Mac = Resoc_crypto.Mac
module Hash = Resoc_crypto.Hash
module Register = Resoc_hw.Register
module Check = Resoc_check.Check

type t = {
  id : int;
  key : Mac.key;
  reg : Register.t;
  mutable issued : int;
  mutable faults_detected : int;
  chk : int;  (* resoc_check hybrid id, -1 when checking is off *)
}

type attestation = {
  signer : int;
  previous : int64;
  current : int64;
  digest : Hash.t;
  tag : Mac.t;
}

let create ~id ~key ~protection =
  {
    id;
    key;
    reg = Register.create protection 0L;
    issued = 0;
    faults_detected = 0;
    chk = (if !Check.enabled then Check.new_hybrid ~name:"trinc" else -1);
  }

let id t = t.id

let counter_register t = t.reg

let attestation_tag = Hash.of_string "trinc"

let attestation_digest ~signer ~previous ~current digest =
  Hash.combine
    (Hash.combine_int attestation_tag signer)
    (Hash.combine (Hash.combine previous current) digest)

let attest t ~new_counter ~digest =
  match Register.read t.reg with
  | _, Register.Fault_detected ->
    t.faults_detected <- t.faults_detected + 1;
    Error "trinc: counter register fault detected"
  | previous, _ ->
    if Int64.compare new_counter previous < 0 then Error "trinc: counter must not decrease"
    else begin
      Register.write t.reg new_counter;
      t.issued <- t.issued + 1;
      if t.chk >= 0 then
        Check.counter_issued ~hybrid:t.chk ~read:previous ~issued:new_counter ~digest;
      let tag =
        Mac.sign t.key (attestation_digest ~signer:t.id ~previous ~current:new_counter digest)
      in
      Ok { signer = t.id; previous; current = new_counter; digest; tag }
    end

let verify ~key a =
  Mac.verify key
    (attestation_digest ~signer:a.signer ~previous:a.previous ~current:a.current a.digest)
    a.tag

let attestations_issued t = t.issued
let faults_detected t = t.faults_detected
