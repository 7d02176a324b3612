#!/usr/bin/env bash
# Print the program's size — lines of non-test Go outside the benchmark —
# and fail when it exceeds the budget below. ROADMAP tracks this number;
# making it a gate means a change that needs more code raises the budget
# in its own diff, where a reviewer sees it, instead of growing the tree
# unnoticed.
#
# Usage: scripts/loc.sh   (from the repository root)
set -euo pipefail

# The last raise, 15763 -> 15835, bought step 4's one-iteration
# confirmation: snapshots at the source's iteration starts with vetoes
# charged in place, the restore to the observed actor's last boundary,
# and BufferSizes' working copy kept in the pooled engine. The last cut,
# 15835 -> 15664, deleted the manager's second copy of the reservation
# ledger (LoadEstimate: the DLQ reads Load().Utilization off the
# platform), the off positions of template reuse and repair, the lenient
# plan mode with NewRemovalPlan, and two local clamp and max helpers.
budget=15664

lines=$(find . -name '*.go' -not -name '*_test.go' \
  -not -path './bench/*' -not -path './.bench_build/*' -print0 |
  xargs -0 cat | wc -l)
echo "non-test non-bench Go lines: $lines (budget $budget)"
if ((lines > budget)); then
  echo "loc: over budget by $((lines - budget)) lines; delete code or raise the budget in scripts/loc.sh" >&2
  exit 1
fi
