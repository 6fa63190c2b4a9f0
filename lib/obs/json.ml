type t =
  | Int of int
  | Num of float * int
  | Str of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Int n -> string_of_int n
  | Num (x, digits) -> Printf.sprintf "%.*f" digits x
  | Str s -> quote s
  | Bool v -> string_of_bool v
  | List vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"
  | Obj kvs ->
      let member (k, v) = quote k ^ ":" ^ to_string v in
      "{" ^ String.concat "," (List.map member kvs) ^ "}"

(* ---- reading: recursive descent over the whole string ---- *)

exception Malformed of int * string

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Malformed (!pos, what)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let scan_while ok =
    let start = !pos in
    while !pos < n && ok s.[!pos] do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  let skip_space () = ignore (scan_while (String.contains " \t\n\r")) in
  let eat c =
    skip_space ();
    let hit = peek () = c in
    if hit then incr pos;
    hit
  in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let number () =
    let text = scan_while (String.contains "+-.eE0123456789") in
    (* digits printed after the point: up to the exponent, if any *)
    let fraction dot =
      let stop = String.index_from_opt (String.lowercase_ascii text) dot 'e' in
      Option.value stop ~default:(String.length text) - dot - 1
    in
    match (int_of_string_opt text, float_of_string_opt text) with
    | Some i, _ -> Int i
    | None, Some x ->
        Num (x, Option.fold ~none:0 ~some:fraction (String.index_opt text '.'))
    | None, None -> fail ("bad number " ^ text)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if Char.code c < 0x20 then fail "control byte in a string"
      else if c <> '\\' then Buffer.add_char b c
      else begin
        (match peek () with
        | 'u' -> (
            match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code when Uchar.is_valid code ->
                Buffer.add_utf_8_uchar b (Uchar.of_int code);
                pos := !pos + 4
            | _ | (exception Invalid_argument _) -> fail "bad \\u escape")
        | c -> (
            (* the escape letter's index picks the byte it stands for *)
            match String.index_opt "\"\\/bfnrt" c with
            | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
            | None -> fail "bad escape"));
        incr pos
      end
    done;
    incr pos;
    Buffer.contents b
  in
  (* [item]s separated by commas up to [closing], the opener consumed *)
  let sequence closing item =
    incr pos;
    let rec more acc =
      let acc = item () :: acc in
      if eat ',' then more acc
      else begin
        expect closing;
        List.rev acc
      end
    in
    if eat closing then [] else more []
  in
  let rec value () =
    skip_space ();
    let member () =
      let k = string () in
      expect ':';
      (k, value ())
    in
    match peek () with
    | '{' -> Obj (sequence '}' member)
    | '[' -> List (sequence ']' value)
    | '"' -> Str (string ())
    | 'a' .. 'z' -> (
        match scan_while (fun c -> c >= 'a' && c <= 'z') with
        | "true" -> Bool true
        | "false" -> Bool false
        | word -> fail ("unknown literal " ^ word))
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  in
  try
    let v = value () in
    skip_space ();
    if !pos < n then fail "trailing characters";
    Ok v
  with Malformed (at, what) -> Error (Printf.sprintf "offset %d: %s" at what)

let rec get path v =
  match (path, v) with
  | [], v -> Some v
  | k :: rest, Obj kvs -> Option.bind (List.assoc_opt k kvs) (get rest)
  | _ :: _, _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Num (x, _) -> Some x
  | _ -> None
