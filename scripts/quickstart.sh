#!/usr/bin/env bash
# Runs the README's networked quickstart end to end on 127.0.0.1: builds
# provision, flserver and flclient, mints kits for two sites, checks that
# flserver refuses four bad settings (-rounds -3, -sample NaN, a top-k
# -codec and an unknown one) by exiting non-zero with the field and its flag named on
# stderr, then runs the server (with its write-ahead log and metrics
# endpoint) and both clients on their default flags for two rounds, in a
# temporary directory.
# It fails unless each refusal names its field and flag, flserver exits 0
# having written the final model and both clients exit 0.
#
#   bash scripts/quickstart.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
go build -o "$work/bin/" ./cmd/provision ./cmd/flserver ./cmd/flclient
cd "$work"

addr=127.0.0.1:28443
limit=300s
bin/provision -clients site-a,site-b >provision.log
# A bad setting is refused before the server listens, naming the field
# and the flag.
for bad in "-rounds -3:Rounds" "-sample NaN:SampleFraction" "-codec topk:Codec" "-codec bogus:Codec"; do
	flags=${bad%:*} field=${bad##*:}
	if timeout 60s bin/flserver -kit kits/server -addr "$addr" $flags >/dev/null 2>refused.log; then
		echo "quickstart: FAIL (flserver $flags exited 0)" >&2
		exit 1
	fi
	for name in "$field" "${flags%% *}"; do
		if ! grep -q -e "$name" refused.log; then
			cat refused.log >&2
			echo "quickstart: FAIL (flserver $flags did not name $name)" >&2
			exit 1
		fi
	done
	echo "quickstart: flserver $flags refused: $(cat refused.log)"
done
timeout "$limit" bin/flserver -kit kits/server -addr "$addr" -clients 2 -rounds 2 \
	-wal rounds.wal -metrics 127.0.0.1:29090 >server.log 2>&1 &
server=$!
# A client's first dial does not retry, so start them once the server listens.
for _ in $(seq 100); do
	grep -q 'listening on' server.log && break
	sleep 0.1
done
sites=(site-a site-b)
clients=()
for i in 0 1; do
	timeout "$limit" bin/flclient -kit "kits/${sites[$i]}" -server "$addr" -shard "$i" -shards 2 \
		>"client$i.log" 2>&1 &
	clients+=($!)
done

status=0
wait "$server" || status=$?
for pid in "${clients[@]}"; do
	wait "$pid" || status=$?
done
if [ "$status" -ne 0 ] || [ ! -s global.weights ]; then
	for log in server.log client0.log client1.log; do
		echo "--- $log" >&2
		tail -n 20 "$log" >&2
	done
	echo "quickstart: FAIL (exit status $status)" >&2
	exit 1
fi
tail -n 3 server.log
echo "quickstart: ok ($(wc -c <global.weights) byte final model)"
