#!/usr/bin/env bash
# Print the program's size — lines of non-test Go outside the benchmark —
# and fail when it exceeds the budget below. ROADMAP tracks this number;
# making it a gate means a change that needs more code raises the budget
# in its own diff, where a reviewer sees it, instead of growing the tree
# unnoticed.
#
# Usage: scripts/loc.sh   (from the repository root)
set -euo pipefail

# The raise after it, 14848 -> 14964, bought an arrival's identity
# computed once per catalogue entry. churn's arrival takes each entry's
# application and library from a bounded process-wide memo and returns
# a renamed shallow copy (+38), so the door's decoder, the storm and the
# benchmark's arrival table stop generating every arrival from scratch.
# model.Library keeps each process's encoded implementations, built on
# first use and dropped by Add, and the key encoding moved from the
# manager into model beside the types it encodes (+35 net): a repeat
# fingerprint copies bytes instead of sorting port maps. The synthetic
# platform generator attaches all its tiles in one arch.AttachTiles
# call that sizes the name index, cell chunk and per-type and
# per-router lists once, with names carved from one string (+43 net,
# SyntheticPlatformWithoutEndpoints folded in): a restart's mesh build
# went from 304 allocations to 24.
# The cut before it, 14851 -> 14848, left internal/core one refinement loop:
# Map and Repair run refine, and FinishAssignment installs an external
# placement as a seed and runs one attempt instead of its own copy of the
# mapping construction, pinned-endpoint placement, tile reservations and
# steps 3 and 4. The seed is dense (slices by process and channel ID), so
# step 2 reads its locks from it and the per-round lock map, the Relocate
# wrapper and an unreachable error path went. Those cuts paid for
# manager.Stats.Add, which lets a chaos run's report sum the manager's
# counters over crashes, and for energy sums in ID order, which make a
# mapping's energy repeat bit for bit.
# The cut before it, 15262 -> 14851, made cmd/spatialmap the one command that
# maps a single application: it generates the HIPERLAN/2 and synthetic
# bundles itself (-gen, -out) and narrates steps 1-4, the itemised
# energy and the simulator's check for any bundle. The bundle generator
# and HIPERLAN/2 walk-through commands went, and so did the hiperlan2
# and scaling example programs, which re-printed what E7, E9 and E11
# print. 193 of the 411 lines are a move, not a deletion: the quickstart
# and multi-application programs are Example functions in
# internal/core/example_test.go, where go test checks their output.
# cmd/experiments picks a report from a selector map, whose keys are
# also its -list, in place of a switch beside experiments.Names.
# The cut before it, 15538 -> 15262, left one scenario loop: chaos.Run drives
# the HTTP door or, open-loop, the stream server in process, and ends
# every run with the pristine-residual and invariant checks. The second
# and third loops went with their reports: cmd/churn and churn.Run,
# which drove the pipeline directly with a random tile-fault injector,
# and churn.RunSoak, cmd/serve's storm. Their fault rate became a
# checked-in script, and the profile helper moved into cmd/serve, its
# only caller.
# The raise before it, 15409 -> 15538, bought a cheaper cold map with the same
# answers. Step 4's engine keeps the completions of the firing duration
# most actors share, a mapped graph's router hop, in a FIFO lane beside
# its event heap: they arrive in time order, so most completions skip
# the heap's O(log n) push and pop. Every place that reads the pending
# completions (snapshots, the restore copy and both skips) reads the
# lane too, and a comment argues why a stream skip keeps the lane in
# order. Step 2 reads a moved process's channel ends once per scan
# instead of once per candidate tile. Three lines refuse an exclusive
# group that names an actor the graph lacks, which used to panic.
# The cut before it, 15686 -> 15409, deleted step 4's temporal half and its
# buffer-shrinking pass: the static-order schedule builder, the engine's
# static-order option with the state and firing-rule branches behind it,
# and BufferSizes' tighten pass with the mapper setting that enabled it.
# The paper maps in space only and leaves the temporal schedule to Smit
# et al.; each feature had one caller, a spatialmap flag, and no mapper
# run read either.
# The raise before it, 15656 -> 15686, bought a cold map that costs what the
# application costs rather than what the mesh costs: step 2 keeps every
# process's tile in a slice beside the mapping (on the stack for a small
# application, so a map allocates nothing more), and under the default
# hop-count cost a move is priced before its tile's room is checked, so
# only tiles that can beat the best move so far are checked. The
# traffic-weighted cost keeps the room-first order, because its price
# costs far more than the room check it would skip.
# A 48x48 map fell to about half its cost. Four of the lines name the
# error a Stop of an application that is not running wraps, so a caller
# can tell a resident a fault dropped from a mistake.
# The cut before it, 15891 -> 15656, deleted the stream server's circuit
# breaker: its three-state machine, bucketed failure ring, probe-slot
# bookkeeping and five tuning values, the shed stage it fed and the
# report fields that printed it. A dead-letter queue that parks capacity
# rejections against their class share already sheds the arrivals the
# breaker was for, and the breaker never opened in CI's storm. Only the
# ignored config type and an always-zero counter stay, because the
# benchmark still sets and reads them.
# The raise before it, 15484 -> 15891, bought step 4's second exact
# fast-forward (internal/csdf/exec.go): the engine signs every completion
# instant, opens a window when the instants repeat, records what the
# window changes, and when the window comes back with only some token
# counts drifting adds many windows at once, stopping before a drifting
# count crosses a firing rule's threshold. Half of the lines are the
# comments that argue why the skip is exact. A few went on keeping a
# cold map's allocations at the parent's: restore's copy holds only the
# state firings change, and the window's record reuses load's scratch.
# The cut before it, 15600 -> 15484, made the pipeline's priority queue the
# only queue: the stream server decides on the submitting goroutine
# whether an arrival enters the backend, so its ingress channel,
# classify and dispatch goroutines, per-class buffers and the stage
# WaitGroup went, with SubmitCtx, Server.Metrics, the exported Arrival
# and manager.Request, and the pipeline's second close guard. About 20
# of the freed lines went on letting a Critical arrival's wait for
# queue room end with its caller's context. The cut
# before it, 15728 -> 15600, made the stream server's dead-letter
# queue the only place a capacity rejection is retried: the door's retry
# loop, backoff jitter and their options went, and so did options no
# caller set (chaos Clients/RequestTimeout/Retries, stream Results, core
# MinGain, the three core loop bounds and the step-1 communication
# estimate) and arch's in-adjacency with InLinks and FailedLinks. It
# spent about 25 of the freed lines on refusing out-of-range scenario values
# in churn.NewStack and cmd/serve. The raise before it, 15664 -> 15728,
# bought crash recovery's indexed
# decoder (uvarint and varint return the next index, and every field of
# a record is checked where it is read, in place of a sticky-error
# reader), replay's refusal of tile and link ids the platform lacks,
# NewStack dropping the events it replayed, and cmd/journal naming the
# headless final segment it skipped. The cut before that, 15835 ->
# 15664, deleted the manager's second copy of the reservation
# ledger (LoadEstimate: the DLQ reads Load().Utilization off the
# platform), the off positions of template reuse and repair, the lenient
# plan mode with NewRemovalPlan, and two local clamp and max helpers.
budget=14964

lines=$(find . -name '*.go' -not -name '*_test.go' \
  -not -path './bench/*' -not -path './.bench_build/*' -print0 |
  xargs -0 cat | wc -l)
echo "non-test non-bench Go lines: $lines (budget $budget)"
if ((lines > budget)); then
  echo "loc: over budget by $((lines - budget)) lines; delete code or raise the budget in scripts/loc.sh" >&2
  exit 1
fi
