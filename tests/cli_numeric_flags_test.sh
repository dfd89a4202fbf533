#!/bin/sh
# Every numeric and enum flag of qborrow, and the numeric flags of
# qbsat and qbfuzz, through the real binaries.
#
#   usage: cli_numeric_flags_test.sh <qborrow> <program.qbr> <qbsat> <file.cnf> <qbfuzz>
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
qbfuzz=$5
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

# Every numeric flag of the options table, read from the generated
# usage text (placeholder N or S): a row added to the table is checked
# here without editing this script.
numeric_flags() { "$@" 2>&1 >/dev/null | grep -Eo '^  --[a-z-]+ [NS]( |$)' | cut -d' ' -f3; }
table=$(numeric_flags "$qborrow")
[ -n "$table" ] || { echo "FAIL: no numeric flag in the usage text" >&2; status=1; }
for flag in $table; do
    eval "set -- $common"
    for value in "$@"; do
        expect_usage "$flag" "$value" "$qborrow" --lint "$flag" "$value" "$program"
    done
done

# Enum flags: a value outside the choices is a usage error too, in
# either spelling.
expect_usage --lane C "$qborrow" --lane C "$program"
expect_usage --analysis bogus "$qborrow" --analysis bogus "$program"
expect_usage --analysis=bogus "" "$qborrow" --analysis=bogus "$program"
expect_usage --budget=zz "" "$qborrow" --lint --budget=zz "$program"
# A switch takes no value.
expect_usage --clean=true "" "$qborrow" --lint --clean=true "$program"
for arg in --analysis=off --budget=100 --lane=B --portfolio; do
    if ! "$qborrow" --lint "$arg" "$program" >/dev/null 2>&1; then
        echo "FAIL: $arg was rejected" >&2
        status=1
    fi
done

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
# qbfuzz: the same strict parser with its own rows.  An invalid value
# exits 2 with usage before any case runs (nothing on stdout); valid
# values run an empty campaign.  Never a large --jobs: 0 means all
# hardware threads.
reals="abc '' 10x +5 ' 5' 0x10 -2 99999999999999999999 nan inf"
fuzz_check() { # flag, rejected values, accepted values
    flag=$1
    accepted=$3
    eval "set -- $2"
    for value in "$@"; do
        out=$("$qbfuzz" --qbr 0 --cnf 0 --analysis 0 --jobs 1 "$flag" "$value" 2>/dev/null)
        code=$?
        err=$("$qbfuzz" --qbr 0 --cnf 0 --analysis 0 --jobs 1 "$flag" "$value" 2>&1 >/dev/null)
        if [ "$code" -ne 2 ] || [ -n "$out" ] ||
                ! printf '%s\n' "$err" | grep -q '^usage:'; then
            echo "FAIL: qbfuzz $flag '$value' exited $code" >&2
            status=1
        fi
    done
    for value in $accepted; do
        "$qbfuzz" --qbr 0 --cnf 0 --analysis 0 --jobs 1 "$flag" "$value" >/dev/null 2>&1
        code=$?
        if [ "$code" -ne 0 ]; then
            echo "FAIL: qbfuzz $flag $value exited $code" >&2
            status=1
        fi
    done
}
for flag in $(numeric_flags "$qbfuzz" --no-such-flag); do
    fuzz_check "$flag" "$common" ""
done
fuzz_check --seed               "$common"            "0 1 20260808"
fuzz_check --qbr                "$common"            "0"
fuzz_check --cnf                "$common"            "0"
fuzz_check --analysis           "$common"            "0"
fuzz_check --jobs               "$common 4294967296" "0 1"
fuzz_check --max-vars           "$common 2"          "3 16"
fuzz_check --brute-max          "$common 64"         "0 12 63"
fuzz_check --max-disagreements  "$common"            "0 4"
fuzz_check --ratio              "$reals 1001"        "0 4.2 1000"
fuzz_check --binary-prob        "$reals 1.5"         "0 0.45 1"
exit $status
