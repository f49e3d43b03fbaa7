(** The trace generator — the stand-in for the paper's proprietary corpus of
    1,188 free Japanese Google Play applications run manually on a handset
    (Sec. V-A).

    A dataset is fully determined by its seed.  The generator is calibrated
    against the paper's published marginals:
    - permission combinations exactly as Table I;
    - per-service application counts and per-application packet intensities
      from Table II;
    - sensitive-parameter pairings from Sec. III-B / Table III;
    - destinations-per-application from the Figure 2 summary statistics
      (7% one destination, 74% within 10, 90% within 16, mean 7.9, max 84),
      fit with a discretized lognormal (mu = 1.64, sigma = 0.9);
    - total trace size targeting the paper's 107,859 packets at scale 1.

    Ground-truth labels are assigned by scanning each generated packet with
    the payload check, so a label always agrees with what a detector could
    in principle observe on the wire. *)

type dataset = {
  device : Device.t;
  apps : App.t array;
  records : Leakdetect_http.Trace.record array;
  payload_check : Leakdetect_core.Payload_check.t;
}

val generate : ?seed:int -> ?scale:float -> ?n_apps:int -> unit -> dataset
(** [generate ()] builds the full-size dataset (seed 42, scale 1.0, 1,188
    apps).  [scale] multiplies per-application packet intensities — use
    [~scale:0.05] for fast tests.  [n_apps] truncates the population while
    keeping Table I proportions. *)

val packets : dataset -> Leakdetect_http.Packet.t array

val split : dataset -> Leakdetect_http.Packet.t array * Leakdetect_http.Packet.t array
(** [(suspicious, normal)] by ground-truth label. *)

val labels_of_record : Leakdetect_http.Trace.record -> Leakdetect_core.Sensitive.kind list

val sensitive_count : dataset -> int
