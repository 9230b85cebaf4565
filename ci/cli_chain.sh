#!/usr/bin/env bash
# The command chain both CI installs run: simulate a panel; estimate, validate,
# fit, train, extract and run both baselines on it; evaluate a positive-level
# panel; write and read a panel large enough to split, on every CPU and on
# one.  Every file lands under <out dir>, so two installs' trees compare
# with cmp.
#
#   ci/cli_chain.sh <eventlift command> <out dir>
#
# The command is split on spaces, so `ci/cli_chain.sh "python -m eventlift.cli"
# runs` works from a source checkout with PYTHONPATH=src.
set -euo pipefail

eventlift=$1
out=$2

cli() {
  # shellcheck disable=SC2086  # the command is split on spaces on purpose
  $eventlift "$@"
}

cli_1cpu() {
  # shellcheck disable=SC2086
  taskset -c 0 $eventlift "$@"
}

cli simulate --phi 0.5 --sigma 1.0 --n 200 --t0 100 --d 3 \
    --delta 2,-1,0.5 --seed 7 --out "$out/sim"
cli estimate --panel "$out/sim/panel.csv" --calendar "$out/sim/calendar.csv" \
    --event event --out "$out/est"
cli mc-validate --phi 0.5 --sigma 1.0 --n 200 --t0 50 --d 3 \
    --delta 2,-1,0.5 --reps 20 --jobs 2 --seed 3 --out "$out/mc"
cli fit-ar --panel "$out/sim/panel.csv" --t0 100 --out "$out/fit"
cli train --panel "$out/sim/panel.csv" --calendar "$out/sim/calendar.csv" \
    --series s000 --lookback 10 --horizon 5 --hidden 8 --epochs 5 --seed 1 \
    --out "$out/model"
cli extract --panel "$out/sim/panel.csv" --calendar "$out/sim/calendar.csv" \
    --event event --series s000 --model "$out/model/model_s000.json" --out "$out/effect"
cli extract --panel "$out/sim/panel.csv" --calendar "$out/sim/calendar.csv" \
    --event event --series s000 --model "$out/model/model_s000.json" --stride 3 \
    --out "$out/effect-stride3"
cli baseline-sd --panel "$out/sim/panel.csv" --calendar "$out/sim/calendar.csv" \
    --event event --series s000 --periods 7 --out "$out/sd"
cli baseline-df --panel "$out/sim/panel.csv" --calendar "$out/sim/calendar.csv" \
    --event event --series s000 --predictor ar1 --lookback 10 --horizon 5 --seed 1 \
    --out "$out/df"
cli baseline-df --panel "$out/sim/panel.csv" --calendar "$out/sim/calendar.csv" \
    --event event --series s000 --predictor mlp --lookback 10 --horizon 5 --hidden 8 \
    --epochs 5 --seed 1 --out "$out/df-mlp"
# evaluate over 200 series: DF trains them in lock-step stacks past the stack
# cap.  The panel above is zero-mean, and impact ratios need a positive level,
# so this one starts at 100 and drifts slowly (phi 0.999)
cli simulate --phi 0.999 --sigma 1.0 --init-mode fixed --init-value 100 \
    --n 200 --t0 100 --d 3 --delta 2,-1,0.5 --seed 7 --out "$out/level"
printf 'event,start_date,end_date\npromo,2013-02-15,2013-02-17\npromo,2013-03-27,2013-03-29\n' \
    > "$out/level/promo.csv"
cli evaluate --panel "$out/level/panel.csv" --calendar "$out/level/promo.csv" \
    --lookback 10 --horizon 5 --hidden 8 --epochs 5 --periods 7 --seed 1 \
    --out "$out/eval-a"
# 600 series x 366 days, 7.8 MB: simulate writes the panel and fit-ar reads
# it in one part per CPU; pinned to one CPU, each does it in one part, and
# every file is the same bytes
split=(--phi 0.5 --sigma 1.0 --n 600 --t0 300 --d 3 --extra-days 62 --delta 2,-1,0.5 --seed 7)
cli simulate "${split[@]}" --out "$out/split"
cli fit-ar --panel "$out/split/panel.csv" --t0 300 --out "$out/split-fit"
cli_1cpu simulate "${split[@]}" --out "$out/split-1cpu"
cli_1cpu fit-ar --panel "$out/split-1cpu/panel.csv" --t0 300 --out "$out/split-1cpu-fit"
cmp "$out/split/panel.csv" "$out/split-1cpu/panel.csv"
cmp "$out/split-fit/ar_fit.csv" "$out/split-1cpu-fit/ar_fit.csv"
