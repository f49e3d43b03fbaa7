type t = { signature_id : int }

let of_signature (s : Leakdetect_core.Signature.t) = { signature_id = s.Leakdetect_core.Signature.id }
