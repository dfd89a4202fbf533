#!/bin/sh
# The docs name every option of qborrow's options table.
#
#   usage: cli_docs_test.sh <qborrow> <docs-dir>
#
# The usage text is generated from the table: every flag it lists must
# appear (in backquotes) in CLI.md, and every per-request member it
# shows as [options.<member>] must have a row in SERVER_PROTOCOL.md's
# options table.
qborrow=$1
docs=$2
status=0

usage=$("$qborrow" 2>&1 >/dev/null)
flags=$(printf '%s\n' "$usage" | grep -Eo '^  --[a-z-]+' | sort -u)
members=$(printf '%s\n' "$usage" | grep -Eo '\[options\.[a-z_]+\]$' |
    sed 's/^\[options\.//; s/\]$//' | sort -u)
if [ -z "$flags" ] || [ -z "$members" ]; then
    echo "FAIL: no flags or members in the usage text" >&2
    exit 1
fi
for flag in $flags; do
    if ! grep -qF -- "\`$flag" "$docs/CLI.md"; then
        echo "FAIL: $flag is missing from $docs/CLI.md" >&2
        status=1
    fi
done
for member in $members; do
    if ! grep -qF -- "| \`$member\` |" "$docs/SERVER_PROTOCOL.md"; then
        echo "FAIL: options member $member is missing from $docs/SERVER_PROTOCOL.md" >&2
        status=1
    fi
done
exit $status
