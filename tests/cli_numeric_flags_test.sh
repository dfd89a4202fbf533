#!/bin/sh
# Every numeric flag of qborrow and qbsat, through the real binaries.
#
#   usage: cli_numeric_flags_test.sh <qborrow> <program.qbr> <qbsat> <file.cnf>
#
# Non-numeric, signed, trailing-junk, out-of-range and overflowing
# values are usage errors (usage text on stderr, exit 2): std::atol
# would read them as 0 and silently change what runs.  The invalid
# values fail in the flag scan, so no server starts and no pool is
# built.  Valid values are checked in lint mode, which parses every
# flag but verifies nothing, plus one real verify and one qbsat solve.
qborrow=$1
program=$2
qbsat=$3
cnf=$4
status=0

# Rejected by every numeric flag.
common="abc '' 10x +5 ' 5' 1.5 0x10 -2 99999999999999999999"

expect_usage() { # flag value command...
    flag=$1
    value=$2
    shift 2
    err=$("$@" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 2 ] || ! printf '%s\n' "$err" | grep -q '^usage:'; then
        echo "FAIL: $flag '$value' exited $code" >&2
        status=1
    fi
}

expect_lint_ok() { # flag value
    "$qborrow" --lint "$1" "$2" "$program" >/dev/null 2>&1
    code=$?
    if [ "$code" -ne 0 ]; then
        echo "FAIL: $1 $2 exited $code" >&2
        status=1
    fi
}

# flag, extra rejected values, accepted values
check() {
    flag=$1
    rejected=$2
    accepted=$3
    eval "set -- $common $rejected"
    for value in "$@"; do
        expect_usage "$flag" "$value" "$qborrow" --lint "$flag" "$value" "$program"
    done
    for value in $accepted; do
        expect_lint_ok "$flag" "$value"
    done
    # A flag without its value is a usage error too.
    expect_usage "$flag" "(missing)" "$qborrow" "$flag"
}

check --budget           "-10 -1x"          "-1 0 1000"
check --jobs             "-1 0 4294967296"  "1 4"
check --inprocess        "-1 4294967296"    "0 16"
check --analysis-window  "-1"               "0 20 25"
check --parallel         "-1 0 4294967296"  "1 2"
check --queue            "-1 0"             "1 16"
check --max-connections  "-1"               "0 8"
check --max-inflight     "-1"               "0 8"
check --idle-timeout     "-1 4294967296"    "0 30"
check --result-cache     "-1"               "0 256"

# The documented example: a junk budget must not verify anything.
expect_usage --budget zz "$qborrow" --quiet --budget zz "$program"

# Valid budgets still verify.
for value in -1 100000; do
    "$qborrow" --quiet --jobs 1 --budget "$value" "$program" >/dev/null 2>&1
    code=$?
    if [ "$code" -ne 0 ]; then
        echo "FAIL: verify with --budget $value exited $code" >&2
        status=1
    fi
done

# qbsat --budget: same rules, -1 is unlimited.
eval "set -- $common -10"
for value in "$@"; do
    expect_usage "qbsat --budget" "$value" "$qbsat" --budget "$value" "$cnf"
done
for value in -1 0 1000; do
    "$qbsat" --budget "$value" "$cnf" >/dev/null 2>&1
    code=$?
    case $code in
        0|10|20) ;;
        *) echo "FAIL: qbsat --budget $value exited $code" >&2
           status=1 ;;
    esac
done
exit $status
