type t = {
  signature_id : int;
  tokens : string list;
  cluster_size : int;
  via : string list;
}

let of_signature ?(via = []) (s : Leakdetect_core.Signature.t) =
  {
    signature_id = s.Leakdetect_core.Signature.id;
    tokens = s.Leakdetect_core.Signature.tokens;
    cluster_size = s.Leakdetect_core.Signature.cluster_size;
    via;
  }
