#!/usr/bin/env bash
# Regenerate every reproduction artifact from scratch.
#
# Outputs:
#   results/full_reports.txt       full-scale text reports, E1..E15
#   benchmarks/results/*.txt/.md   per-experiment tables (quick scale, timed)
#   benchmarks/results/BENCH_serve.json  serving-tier load benchmark
#   test_output.txt                full unit/property suite transcript
#   bench_output.txt               benchmark transcript
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== unit + property tests =="
pytest tests/ 2>&1 | tee test_output.txt

echo "== benchmarks (quick scale, timed) =="
pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

echo "== full-scale experiment reports =="
mkdir -p results
python -m repro experiments --all --scale full | tee results/full_reports.txt

echo "== serving-tier load benchmark =="
python -m repro bench-serve --requests 400 --concurrency 16 --groups 8 \
  --output benchmarks/results/BENCH_serve.json
python scripts/validate_obs_artifacts.py \
  --bench-serve benchmarks/results/BENCH_serve.json

echo "all artifacts regenerated"
