#!/bin/bash
# Regenerates every figure/table of the paper through the unified `repro`
# driver. Text reports land in results/<name>.txt, structured RunRecord
# JSON (and CSV where applicable) alongside them, training/progress
# chatter in results/<name>.log.
#
# The driver keeps output basenames equal to the names of the retired
# per-figure binaries, so regenerated artifacts land on the checked-in
# results/ paths.
set -u
cd "$(dirname "$0")"
REPRO=./target/release/repro
FIGURES="table3 starvation_check fig04 fig05 fig12 fig13 ablation_defeature ablation_hparams ablation_multi_agent ablation_routing extended_policies load_sweep fig07 fig09 fig10 fig11"
for f in $FIGURES; do
  case $f in
    fig04) out=fig04_heatmap ;;
    fig05) out=fig05_synthetic ;;
    fig07) out=fig07_apu_heatmap ;;
    fig09) out=fig09_avg_exec ;;
    fig10) out=fig10_tail_exec ;;
    fig11) out=fig11_mixed ;;
    fig12) out=fig12_rewards ;;
    fig13) out=fig13_features ;;
    table3) out=table3_synthesis ;;
    *) out=$f ;;
  esac
  echo "=== $f ==="
  $REPRO "$f" --out-dir results "$@" > results/$out.txt 2> results/$out.log && echo "ok: results/$out.txt" || echo "FAILED: see results/$out.log"
done
