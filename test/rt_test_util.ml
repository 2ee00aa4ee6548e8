(* Shared helpers for the real-runtime tests.

   Spawned domains never call Alcotest: it prints through Format, which
   is not domain-safe, so a check failing on a feeder domain surfaced as
   [Stdlib.Queue.Empty] out of [Domain.join] instead of as the failed
   check. Domains record what they saw in the cells below; the main
   domain asserts after the joins, with the same strength. *)

(* Lowest value any domain observed. Starts at 0, so it moves only when
   an observation goes negative. *)
let make_floor () = Atomic.make 0

let rec note_floor floor v =
  let seen = Atomic.get floor in
  if v < seen && not (Atomic.compare_and_set floor seen v) then note_floor floor v

(* The first failure message any domain recorded; later ones are
   dropped, as Alcotest stops at the first failing check. *)
let make_first_failure () = Atomic.make None

let note_failure first msg = ignore (Atomic.compare_and_set first None (Some msg))
let check_no_failure first = Option.iter Alcotest.fail (Atomic.get first)

(* Sum one per-worker counter over a fresh telemetry snapshot. *)
let sum_workers rt f =
  Array.fold_left
    (fun acc w -> acc + f w)
    0 (Rt.Runtime.telemetry_snapshot rt).s_workers
