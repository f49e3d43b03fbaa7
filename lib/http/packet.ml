type destination = { ip : Leakdetect_net.Ipv4.t; port : int; host : string }
type content = { request_line : string; cookie : string; body : string }
type t = { dst : destination; content : content }

let make ~dst ~request =
  {
    dst;
    content =
      {
        request_line = Request.request_line request;
        cookie = Request.cookie request;
        body = request.Request.body;
      };
  }

let v ~ip ~port ~host ~request_line ~cookie ~body =
  { dst = { ip; port; host }; content = { request_line; cookie; body } }

let content_string t =
  String.concat "\n" [ t.content.request_line; t.content.cookie; t.content.body ]
