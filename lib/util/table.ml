type align = Left | Right

let pad align width s =
  let gap = width - String.length s in
  if gap <= 0 then s
  else
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s

let normalize ncols row =
  let len = List.length row in
  if len = ncols then row
  else if len > ncols then List.filteri (fun i _ -> i < ncols) row
  else row @ List.init (ncols - len) (fun _ -> "")

let render ?title ~columns rows =
  let ncols = List.length columns in
  let rows = List.map (normalize ncols) rows in
  let headers = List.map fst columns in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let line cells =
    String.concat "  "
      (List.map2 (fun (w, (_, align)) c -> pad align w c)
         (List.combine widths columns) cells)
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  (match title with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (line headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
