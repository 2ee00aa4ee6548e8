(* Reading counters by their Prometheus family names out of
   [Rtnet.Admin.metrics_text], so the benchmark depends on the exported
   names and not on the runtime's internal records. *)

(* [(labels, value)] of every sample of family [name], labels as the
   raw text between the braces ("" when there are none). *)
let samples text name =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let n = String.length name in
         if String.length line > n && String.sub line 0 n = name then
           match line.[n] with
           | ' ' ->
             Some ("", float_of_string (String.trim (String.sub line n (String.length line - n))))
           | '{' -> (
             match String.index_opt line '}' with
             | None -> None
             | Some close ->
               let labels = String.sub line (n + 1) (close - n - 1) in
               let v = String.sub line (close + 1) (String.length line - close - 1) in
               Some (labels, float_of_string (String.trim v)))
           | _ -> None
         else None)

let sum text name = List.fold_left (fun acc (_, v) -> acc +. v) 0. (samples text name)

(* Per-label difference [after - before] of one family. *)
let deltas ~before ~after name =
  let b = samples before name in
  List.map
    (fun (l, v) -> (l, v -. Option.value ~default:0. (List.assoc_opt l b)))
    (samples after name)
