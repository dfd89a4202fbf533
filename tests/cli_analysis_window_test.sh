#!/bin/sh
# qborrow --analysis-window parsing, through the real binary.
#
#   usage: cli_analysis_window_test.sh <qborrow> <program.qbr>
#
# Non-numeric, signed, trailing-garbage and overflowing values are
# usage errors (usage text on stderr, exit 2): std::atol would read
# them as 0 and silently switch off lint's permutation proof.  Plain
# decimals run, and the usage text states the cap of 20.
qborrow=$1
program=$2
status=0

for value in abc '' 10x -1 +5 ' 5' 99999999999999999999; do
    err=$("$qborrow" --lint --analysis-window "$value" "$program" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 2 ] || ! printf '%s\n' "$err" | grep -q '^usage:'; then
        echo "FAIL: --analysis-window '$value' exited $code" >&2
        status=1
    fi
done

for value in 0 3 10 20 25; do
    "$qborrow" --lint --analysis-window "$value" "$program" >/dev/null 2>&1
    code=$?
    if [ "$code" -ne 0 ]; then
        echo "FAIL: --analysis-window $value exited $code" >&2
        status=1
    fi
done

usage=$("$qborrow" 2>&1 >/dev/null)
if ! printf '%s\n' "$usage" | grep -A2 -e '--analysis-window' \
        | tr -s ' \n' ' ' | grep -q 'capped at 20'; then
    echo "FAIL: usage does not state the window cap" >&2
    status=1
fi
exit $status
