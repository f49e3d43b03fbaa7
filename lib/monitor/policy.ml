type action = Allow | Block | Prompt

type rule = { on_sensitive : action; on_benign : action }

let default_rule = { on_sensitive = Prompt; on_benign = Allow }

type t = { default : rule; rules : (int, rule) Hashtbl.t }

let create ?(default = default_rule) () = { default; rules = Hashtbl.create 16 }
let set_rule t ~app_id rule = Hashtbl.replace t.rules app_id rule
let rule_for t ~app_id = Option.value ~default:t.default (Hashtbl.find_opt t.rules app_id)
