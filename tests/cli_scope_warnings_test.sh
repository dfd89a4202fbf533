#!/bin/sh
# One warning per set flag that has no effect in the chosen mode.
#
#   usage: cli_scope_warnings_test.sh <qborrow> <program.qbr>
#
# The socket paths do not exist, so each run stops at the socket error
# (exit 2) right after the flag scan has warned: no daemon starts.
qborrow=$1
program=$2
nowhere=/nonexistent-qborrow-test-dir/q.sock
status=0

expect_warnings() { # expected warning lines, then the command
    expected=$1
    shift
    got=$("$@" 2>&1 >/dev/null | grep '^warn:')
    if [ "$got" != "$expected" ]; then
        printf 'FAIL: %s\n  want: %s\n  got:  %s\n' "$*" "$expected" "$got" >&2
        status=1
    fi
}

expect_warnings "warn: --no-lint is local-only; ignored in server mode
warn: --analysis-window is local-only; ignored in server mode
warn: --dump-circuit is local-only; ignored in server mode
warn: --json is local/client-only; ignored in server mode
warn: --quiet is local/client-only; ignored in server mode" \
    "$qborrow" --serve "$nowhere" --json --quiet --dump-circuit \
    --no-lint --analysis-window 4 --jobs 1 --lane B

expect_warnings "warn: --jobs is server-wide; ignored in client mode
warn: --analysis is server-wide; ignored in client mode
warn: --analysis-window is local-only; ignored in client mode
warn: --dump-circuit is local-only; ignored in client mode" \
    "$qborrow" --connect "$nowhere" --dump-circuit --analysis off \
    --analysis-window 4 --jobs 2 --budget 10 --json "$program"

expect_warnings "warn: --parallel is server-only; ignored in local mode
warn: --token is server/client-only; ignored in local mode" \
    "$qborrow" --parallel 3 --token t --quiet "$nowhere"

# No warning when every flag acts in its mode.
expect_warnings "" "$qborrow" --quiet --jobs 1 --dump-circuit "$program"
exit $status
