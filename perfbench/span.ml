(* One op's trace: an array of spans whose index 0 is the op itself
   (the root) and whose [parent] fields index into the same array. A
   layer's self time is its duration minus the part of that interval
   its children cover. *)

type t = { name : string; start : int; stop : int; parent : int }

let dur s = s.stop - s.start

(* Length of the union of [i]'s children's intervals. *)
let covered spans i =
  let kids =
    Array.to_list spans |> List.filter (fun s -> s.parent = i)
    |> List.sort (fun a b -> compare a.start b.start)
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) s ->
        let lo = max s.start reach in
        if s.stop > lo then (total + (s.stop - lo), s.stop) else (total, reach))
      (0, min_int) kids
  in
  total

let self_times spans = Array.mapi (fun i s -> dur s - covered spans i) spans

(* [Ok ()] when index 0 is the only root, every span has
   [start <= stop], every parent precedes its child, and every child
   lies inside its parent. *)
let check_nesting spans =
  let n = Array.length spans in
  let rec go i =
    if i = n then Ok ()
    else
      let s = spans.(i) in
      if s.stop < s.start then Error (Printf.sprintf "%s ends before it starts" s.name)
      else if i = 0 then if s.parent = -1 then go 1 else Error "root has a parent"
      else if s.parent < 0 || s.parent >= i then
        Error (Printf.sprintf "%s has no earlier parent" s.name)
      else
        let p = spans.(s.parent) in
        if s.start < p.start || s.stop > p.stop then
          Error (Printf.sprintf "%s [%d,%d] outside %s [%d,%d]" s.name s.start s.stop
                   p.name p.start p.stop)
        else go (i + 1)
  in
  if n = 0 then Error "no spans" else go 0

(* Self times add up to the root's duration exactly when no two
   siblings overlap: then every instant of the op belongs to exactly
   one span. *)
let check_self_sum spans =
  let sum = Array.fold_left ( + ) 0 (self_times spans) in
  if sum = dur spans.(0) then Ok ()
  else Error (Printf.sprintf "self times sum to %d ns, root lasts %d ns" sum (dur spans.(0)))

let check spans = Result.bind (check_nesting spans) (fun () -> check_self_sum spans)
