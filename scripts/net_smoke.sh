#!/usr/bin/env bash
# Multi-process TCP smoke test: three `nbraft-cli serve` processes on
# loopback, real socket traffic, a leader kill, and NB-Raft's opList retry
# across the resulting re-election; then a WAL cluster through a kill -9
# recovery and a kill -STOP freeze of a follower.
#
#   ./scripts/net_smoke.sh                 # uses ./target/release/nbraft-cli
#   CLI=./target/debug/nbraft-cli ./scripts/net_smoke.sh
#
# Artifacts (serve logs + Prometheus scrapes before and after the kill, and
# the leader's scrape while a follower is frozen) are left in
# target/ci-artifacts/net-smoke/.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${CLI:-./target/release/nbraft-cli}"
ART=target/ci-artifacts/net-smoke
CLUSTER_ID=11
# Ports derived from the PID so parallel runs on one machine do not collide.
BASE=$((20000 + ($$ % 20000)))
P0=$BASE; P1=$((BASE + 1)); P2=$((BASE + 2))
M0=$((BASE + 10)); M1=$((BASE + 11)); M2=$((BASE + 12))
PEERS="127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2"

[ -x "$CLI" ] || { echo "net_smoke: $CLI not built (cargo build --release -p nbr-cli)"; exit 1; }
rm -rf "$ART"; mkdir -p "$ART"

PIDS=()
cleanup() {
    # CONT too: a stopped process holds a SIGTERM until it runs again.
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null && kill -CONT "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT

# Peer links carry 2 ms of emulated RTT and drop 5% of protocol frames: on
# raw loopback entries arrive in order, the accept that completes an op's
# weak quorum also commits it, and the replica loop sends the client the
# Strong alone (nbr_core::settle_outputs) — no weak ack would ever be observed.
# A follower that caches entries behind a lost frame is the regime the
# NB-Raft early return exists for, and what the "weak accepts" assertion
# below needs in order to mean anything (measured: 55–70% of phase-1 acks).
echo "== starting 3-process cluster on $PEERS (traced, 2 ms RTT, 5% loss) =="
mkdir -p "$ART/traces"
for i in 0 1 2; do
    mport=$((M0 + i))
    "$CLI" serve --node-id "$i" --peers "$PEERS" --cluster-id "$CLUSTER_ID" \
        --rtt-ms 2 --loss-pct 5 \
        --metrics "127.0.0.1:$mport" --trace "$ART/traces/node$i.jsonl" \
        >"$ART/node$i.log" 2>&1 &
    PIDS[i]=$!
done

# Scrape a node's /metrics endpoint (no curl dependency: bash /dev/tcp).
scrape() { # scrape PORT FILE
    exec 9<>"/dev/tcp/127.0.0.1/$1" || return 1
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&9
    cat <&9 >"$2"
    exec 9>&-
}

# One column of a bench-net table's (only) row, named as in its header.
row() { # row COLUMN FILE
    awk -v col="$1" '$1 == "window" { for (i = 1; i <= NF; i++) if ($i == col) c = i; next }
                     c { print $c; exit }' "$2"
}

# Wait for a leader to announce itself in some serve log.
find_leader() {
    for i in 0 1 2; do
        if [ -n "${PIDS[i]:-}" ] && tail -n 1 "$ART/node$i.log" 2>/dev/null | grep -q LEADER; then
            echo "$i"; return 0
        fi
    done
    return 1
}
LEADER=""
for _ in $(seq 1 100); do
    if LEADER=$(find_leader); then break; fi
    sleep 0.2
done
[ -n "$LEADER" ] || { echo "net_smoke: FAIL no leader elected"; exit 1; }
echo "leader: node $LEADER"

echo "== phase 1: commit over real TCP =="
"$CLI" bench-net --peers "$PEERS" --cluster-id "$CLUSTER_ID" \
    --clients 4 --seconds 2 | tee "$ART/bench1.txt"
OPS1=$(row ops "$ART/bench1.txt")
WEAK1=$(row weak "$ART/bench1.txt")
[ "${OPS1:-0}" -gt 0 ] || { echo "net_smoke: FAIL no ops committed"; exit 1; }
[ "${WEAK1:-0}" -gt 0 ] || { echo "net_smoke: FAIL no weak accepts (NB-Raft path dead)"; exit 1; }

scrape "$((M0 + LEADER))" "$ART/metrics-before-kill.prom"
grep -q "nbr_net_frames_out" "$ART/metrics-before-kill.prom" \
    || { echo "net_smoke: FAIL transport metrics missing from scrape"; exit 1; }
# Live transport telemetry from the trace layer: per-peer RTT gauges fed by
# the timestamped Ping/Pong keepalives must be present on a busy link.
grep -q "nbr_net_rtt_ns_peer" "$ART/metrics-before-kill.prom" \
    || { echo "net_smoke: FAIL link RTT gauges missing from scrape"; exit 1; }

echo "== span assembly from the 3 per-process traces =="
# The serve processes flush their probe buffers to JSONL every 500ms; give
# the writers one beat, then assemble cross-process spans (clock-aligned
# off the keepalive samples) and require complete ones.
sleep 1
"$CLI" trace --critical-path "$ART/traces" | tee "$ART/critical-path-smoke.txt"
grep -q "complete spans" "$ART/critical-path-smoke.txt" \
    || { echo "net_smoke: FAIL span assembly produced no report"; exit 1; }
COMPLETE=$(sed -n 's/.* (\([0-9]*\) complete spans.*/\1/p' "$ART/critical-path-smoke.txt")
[ "${COMPLETE:-0}" -gt 0 ] \
    || { echo "net_smoke: FAIL no complete cross-process spans assembled"; exit 1; }

echo "== phase 2: kill leader (node $LEADER), expect re-election + retry =="
kill "${PIDS[LEADER]}"
wait "${PIDS[LEADER]}" 2>/dev/null || true
unset "PIDS[LEADER]"

NEW_LEADER=""
for _ in $(seq 1 150); do
    sleep 0.2
    if NEW_LEADER=$(find_leader) && [ "$NEW_LEADER" != "$LEADER" ]; then break; fi
    NEW_LEADER=""
done
[ -n "$NEW_LEADER" ] || { echo "net_smoke: FAIL no re-election after leader kill"; exit 1; }
echo "new leader: node $NEW_LEADER"

# The same membership list still works: clients time out on the dead node
# and rotate — this exercises the opList/listTerm retry path end to end.
"$CLI" bench-net --peers "$PEERS" --cluster-id "$CLUSTER_ID" \
    --clients 4 --seconds 2 | tee "$ART/bench2.txt"
OPS2=$(row ops "$ART/bench2.txt")
[ "${OPS2:-0}" -gt 0 ] || { echo "net_smoke: FAIL no commits after re-election"; exit 1; }

scrape "$((M0 + NEW_LEADER))" "$ART/metrics-after-kill.prom"
grep -q "nbr_net_tcp_connects" "$ART/metrics-after-kill.prom" \
    || { echo "net_smoke: FAIL socket metrics missing after kill"; exit 1; }

echo "== phase 3: WAL crash-recovery (kill -9 a follower mid-commit, restart, converge) =="
# A fresh cluster on separate ports, every replica on a write-ahead log, so
# a kill -9 loses nothing durable and the restarted process replays from
# disk and rejoins.
W0=$((BASE + 20)); W1=$((BASE + 21)); W2=$((BASE + 22))
WM0=$((BASE + 30))
WPEERS="127.0.0.1:$W0,127.0.0.1:$W1,127.0.0.1:$W2"
WAL_CLUSTER_ID=12
for i in 0 1 2; do
    mkdir -p "$ART/wal/node$i"
    "$CLI" serve --node-id "$i" --peers "$WPEERS" --cluster-id "$WAL_CLUSTER_ID" \
        --wal "$ART/wal/node$i" --metrics "127.0.0.1:$((WM0 + i))" \
        >"$ART/wal-node$i.log" 2>&1 &
    PIDS[3 + i]=$!
done

find_wal_leader() {
    for i in 0 1 2; do
        if [ -n "${PIDS[3 + i]:-}" ] && tail -n 1 "$ART/wal-node$i.log" 2>/dev/null | grep -q LEADER; then
            echo "$i"; return 0
        fi
    done
    return 1
}
WLEADER=""
for _ in $(seq 1 100); do
    if WLEADER=$(find_wal_leader); then break; fi
    sleep 0.2
done
[ -n "$WLEADER" ] || { echo "net_smoke: FAIL no leader on WAL cluster"; exit 1; }
VICTIM=$(( (WLEADER + 1) % 3 ))
echo "WAL leader: node $WLEADER, kill -9 victim: follower node $VICTIM"

# Traffic in the background; SIGKILL the follower while commits are in
# flight so its WAL tail is whatever happened to be synced at that instant.
"$CLI" bench-net --peers "$WPEERS" --cluster-id "$WAL_CLUSTER_ID" \
    --clients 4 --seconds 4 >"$ART/bench3.txt" 2>&1 &
BENCH=$!
sleep 1
kill -9 "${PIDS[3 + VICTIM]}"
wait "${PIDS[3 + VICTIM]}" 2>/dev/null || true
unset "PIDS[3 + VICTIM]"
wait "$BENCH" || { echo "net_smoke: FAIL bench died during follower crash"; exit 1; }
OPS3=$(row ops "$ART/bench3.txt")
[ "${OPS3:-0}" -gt 0 ] || { echo "net_smoke: FAIL no commits while follower was down"; exit 1; }

# Restart the victim with the identical command: it must replay its WAL,
# rejoin, and converge with the survivors rather than diverging.
"$CLI" serve --node-id "$VICTIM" --peers "$WPEERS" --cluster-id "$WAL_CLUSTER_ID" \
    --wal "$ART/wal/node$VICTIM" --metrics "127.0.0.1:$((WM0 + VICTIM))" \
    >>"$ART/wal-node$VICTIM.log" 2>&1 &
PIDS[3 + VICTIM]=$!

commit_of() { # commit_of METRICS_PORT  -> nbr_commit_index value or empty
    local f="$ART/scrape-$1.prom"
    scrape "$1" "$f" 2>/dev/null || { echo ""; return; }
    awk '/^nbr_commit_index\{/ {print $2}' "$f"
}
# Wait until all three WAL nodes report one commit index and node $1 has
# applied everything it claims committed; sets CONVERGED (empty on timeout).
converge() { # converge NODE
    CONVERGED=""
    APPLIED=0
    for _ in $(seq 1 100); do
        sleep 0.3
        C0=$(commit_of "$WM0"); C1=$(commit_of "$((WM0 + 1))"); C2=$(commit_of "$((WM0 + 2))")
        if [ -n "$C0" ] && [ "$C0" -gt 0 ] && [ "$C0" = "$C1" ] && [ "$C1" = "$C2" ]; then
            APPLIED=$(awk '/^nbr_applied\{/ {print $2}' "$ART/scrape-$((WM0 + $1)).prom")
            if [ "${APPLIED:-0}" -ge "$C0" ]; then CONVERGED="$C0"; return; fi
        fi
    done
}
# The recovered follower must also have applied everything it claims
# committed — replayed prefix included.
converge "$VICTIM"
[ -n "$CONVERGED" ] || {
    echo "net_smoke: FAIL restarted follower did not converge" \
         "(commits: ${C0:-?} ${C1:-?} ${C2:-?}, victim applied ${APPLIED:-?})"
    exit 1
}
WAL_COMMIT=$CONVERGED
echo "WAL recovery: all 3 nodes at commit $CONVERGED, victim applied $APPLIED"

# The restart re-attached one link per neighbour on every node, a dialed and
# an accepted one between them: both of each node's peer links must be up
# again with no frame left waiting in a lane. (The victim's link to the
# other follower redials on a backoff of up to 2 s, hence the polling.)
links_ok() { # links_ok SCRAPE_FILE
    awk '/^nbr_net_peer_links_up\{/ {up = $2} /^nbr_net_send_queue_depth\{/ {depth = $2}
         END {exit !(up == 2 && depth == 0)}' "$1"
}
LINKS=""
for _ in $(seq 1 50); do
    LINKS=ok
    for i in 0 1 2; do
        f="$ART/scrape-$((WM0 + i)).prom"
        scrape "$((WM0 + i))" "$f" 2>/dev/null && links_ok "$f" || LINKS=""
    done
    [ -n "$LINKS" ] && break
    sleep 0.2
done
[ -n "$LINKS" ] || {
    echo "net_smoke: FAIL peer links did not all re-attach and drain after the restart:"
    grep -H -E '^nbr_net_(peer_links_up|send_queue_depth)\{' "$ART"/scrape-*.prom
    exit 1
}
echo "peer links: every node reports net_peer_links_up 2, net_send_queue_depth 0"

echo "== phase 4: freeze a follower (kill -STOP) under 4 KiB load; the leader must not wait on it =="
# A frozen process reads nothing, so the leader's socket to it fills. A
# replica thread's own write to it gives up after the transport's write
# stall and the pump finishes the frame; everything after it queues and is
# shed. The leader and the other follower are a quorum and keep committing.
WLEADER=$(find_wal_leader) || { echo "net_smoke: FAIL no WAL leader before the freeze"; exit 1; }
FROZEN=$(( (WLEADER + 2) % 3 ))
echo "WAL leader: node $WLEADER, frozen follower: node $FROZEN"
kill -STOP "${PIDS[3 + FROZEN]}"
"$CLI" bench-net --peers "$WPEERS" --cluster-id "$WAL_CLUSTER_ID" \
    --clients 4 --seconds 3 --payload 4096 >"$ART/bench4.txt" 2>&1 \
    || { kill -CONT "${PIDS[3 + FROZEN]}"; echo "net_smoke: FAIL bench died during the freeze"; exit 1; }
scrape "$((WM0 + WLEADER))" "$ART/metrics-leader-frozen-peer.prom"
kill -CONT "${PIDS[3 + FROZEN]}"
OPS4=$(row ops "$ART/bench4.txt")
[ "${OPS4:-0}" -gt 0 ] || { echo "net_smoke: FAIL no commits while a follower was frozen"; exit 1; }
STALLS=$(awk '/^nbr_net_write_stalls\{/ {print $2}' "$ART/metrics-leader-frozen-peer.prom")
[ "${STALLS:-0}" -gt 0 ] \
    || { echo "net_smoke: FAIL the leader's socket to the frozen follower never filled"; exit 1; }
converge "$FROZEN"
[ -n "$CONVERGED" ] || {
    echo "net_smoke: FAIL thawed follower did not converge" \
         "(commits: ${C0:-?} ${C1:-?} ${C2:-?}, thawed applied ${APPLIED:-?})"
    exit 1
}
echo "freeze: $OPS4 ops while node $FROZEN was stopped ($STALLS write stalls on the leader), all 3 nodes at commit $CONVERGED after it resumed"

echo
echo "net_smoke: PASS (phase1 ops=$OPS1 weak=$WEAK1, post-kill ops=$OPS2, leader $LEADER -> $NEW_LEADER, wal-recovery commit=$WAL_COMMIT, frozen-follower ops=$OPS4)"
echo "artifacts in $ART/"
