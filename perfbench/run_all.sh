#!/bin/sh
# Every workload of BENCHMARK.json, end to end and then traced: prints every
# metric by name with its unit.  Extra arguments go to run.py (e.g. --seed 7).
#
#     sh perfbench/run_all.sh
set -e
for w in $(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do
    for t in 0 1; do
        python3 perfbench/run.py --workload "$w" --trace "$t" "$@"
    done
done
