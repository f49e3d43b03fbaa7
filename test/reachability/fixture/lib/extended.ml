(* [from_base] is called as [Extended.from_base]. *)
include Base

let own () = 3
