#!/usr/bin/env bash
# Print the program's size — lines of non-test Go outside the benchmark —
# and fail when it exceeds the budget below. ROADMAP tracks this number;
# making it a gate means a change that needs more code raises the budget
# in its own diff, where a reviewer sees it, instead of growing the tree
# unnoticed.
#
# Usage: scripts/loc.sh   (from the repository root)
set -euo pipefail

# The last cut, 15600 -> 15484, made the pipeline's priority queue the
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
budget=15484

lines=$(find . -name '*.go' -not -name '*_test.go' \
  -not -path './bench/*' -not -path './.bench_build/*' -print0 |
  xargs -0 cat | wc -l)
echo "non-test non-bench Go lines: $lines (budget $budget)"
if ((lines > budget)); then
  echo "loc: over budget by $((lines - budget)) lines; delete code or raise the budget in scripts/loc.sh" >&2
  exit 1
fi
