GO ?= go

# Pinned versions for the network-fetched linters (run via `go run`, never
# preinstalled). Offline environments skip them — see the availability probe
# in the staticcheck/govulncheck targets; CI always has the network and so
# always enforces them.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: build test check lint staticcheck govulncheck bench bench-quick copy-gate bench-check bench-smoke examples allocs-top fuzz chaos chaos-realnet race soak soak-quick mutate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate. Order matters: lint runs first because it is
# the cheapest gate and its diagnostics are the ones a human can fix without
# rerunning anything (and `go vet` inside it compiles the tree, warming the
# build cache for everything after); the network-gated linters come next so
# an offline skip notice is printed before the long race run; the race-
# detector test suite runs last because it dominates wall-clock time (the
# realnet runtime and the batching pipeline are exercised with real
# goroutines).
check: lint staticcheck govulncheck
	$(GO) test -race ./...

# lint runs go vet plus the repository's own analyzer, secretflow (on the
# dataflow engine, following same-package calls) — the one that `make mutate`
# showed to catch what no other gate catches; see cmd/troxy-lint and DESIGN.md
# "Trust-boundary enforcement". Any diagnostic fails the build, and none can
# be suppressed: a finding is fixed, not excused.
lint:
	$(GO) vet ./...
	$(GO) build -o bin/troxy-lint ./cmd/troxy-lint
	./bin/troxy-lint ./...

# staticcheck/govulncheck fetch their pinned module on first use
# (`go run mod@version` runs module-less and touches neither go.mod nor
# go.sum). The `-version` probe distinguishes "offline sandbox" from "tool
# found real problems": offline skips with a notice, online findings fail
# the gate. CI always has the network, so the gate is always enforced there.
staticcheck:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		echo "staticcheck: running $(STATICCHECK)"; \
		$(GO) run $(STATICCHECK) ./... ; \
	else \
		echo "staticcheck: $(STATICCHECK) unavailable (offline), skipping — CI enforces this"; \
	fi

govulncheck:
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		echo "govulncheck: running $(GOVULNCHECK)"; \
		$(GO) run $(GOVULNCHECK) ./... ; \
	else \
		echo "govulncheck: $(GOVULNCHECK) unavailable (offline), skipping — CI enforces this"; \
	fi

bench:
	$(GO) test -bench . -benchmem ./...

# bench-quick is the allocation gates (run in CI on every push/PR). The
# request path's buffer discipline (DESIGN.md §5) is held function by function
# by the BenchmarkAllocGate of internal/msg, authn, tcounter, app, troxy,
# replica, enclave, securechannel and realnet — each sub-benchmark fails
# itself above its ceiling (each message encoder on the request path into a
# warm writer 0, one row per function, the ring transport's frame encoder 0,
# an owned body or envelope encoding 1, a 16-request batch digested 0,
# decode + open a 16-request PREPARE 3, a reply decoded into a reused OrderedReply 0, MAC check + walk of
# a five-reply batch 1, a reply built, tagged and queued for a remote origin 0
# and its batch flushed 0 (the queue's buffer, which Send copies), a peer's
# cache query opened and answered 0 (a view of the binding's result buffer,
# which Send copies), a FORWARD sent 0 (a pooled writer, the MAC in the
# authenticator's scratch), a vote over three replies 2 plus the client's
# record, a fast read's round through the enclave binding 0 and a write's 2
# (what ordering keeps of a submit: its slice and its operations' slab), an
# ecall answering one client record 0, SealMessage 0, VerifyMAC 0, a Troxy
# group tag verified or made into the caller's buffer 0 (troxy's), a 16 x
# 4 KiB PREPARE broadcast to two peers 0 — a pooled writer: it carries no
# MAC, so no tag —, a local Router.Send through to delivery 0 and a bridge frame
# decoded and delivered 0, a send ring's push, take and release 0 and its
# vectored flush 0 (realnet's), a 16-frame coalesced seal 2 (its plaintext and
# its record), Store.Keys 0, an ecall round trip
# into room the caller brought 0, a reply
# tagged across the boundary 0, a record opened into a lent buffer and walked
# 0, a ChannelData envelope sealed 2 and opened 0, a request hashed where it
# lies 0, Submit at a follower 0 — the core's one FORWARD, nothing for the
# request it keeps — a PREPARE of held requests decoded into a reused struct
# and admitted without a slab 1, a batch-of-one round on three cores 21, a
# certificate across the boundary 1 (its copy-out), and the
# fast-read cache's CacheReinstallSameResult 0, CacheInvalidateThenReinstall 1
# and CacheEvictAndInstall 1, the reply's slab, …), and end to end by
# TestWriteAllocBudget at the module root (allocations per 128-byte write
# through a whole simulated cluster, 32 clients), TestLoneWriteAllocBudget (the same with one client: a batch of
# one a sequence number) and TestFastReadAllocBudget (per 128-byte fast read),
# beside TestWriteMACBudget on the same deployment (MACs charged per write:
# host MACs, Troxy tags and counter certificates, so a MAC that comes back on
# a message something else authenticates fails it). In
# internal/app BenchmarkStoreCheckpoint fails itself if a checkpoint interval
# at a fixed dirty set allocates in proportion to the state or costs more than
# twice as much on 256 MiB of state as on 1 MiB, and BenchmarkStoreFork if
# forking the store (the speculation shadow's re-anchor) allocates more than
# 64 bytes an entry. The benchtimes are short because the gates are those
# assertions, not ns/op — timing numbers for the record live in EXPERIMENTS.md.
bench-quick: copy-gate
	$(GO) test -run xxx -bench 'AllocGate' -benchmem -benchtime 1000x ./internal/msg/ ./internal/authn/ ./internal/tcounter/ ./internal/app/ ./internal/troxy/ ./internal/hybster/ ./internal/replica/ ./internal/enclave/ ./internal/securechannel/ ./internal/realnet/
	$(GO) test -run xxx -bench 'StoreCheckpoint|StoreFork' -benchmem -benchtime 20x ./internal/app/
	$(GO) test -count=1 -run 'TestWriteAllocBudget|TestLoneWriteAllocBudget|TestFastReadAllocBudget|TestWriteMACBudget' -v .

# copy-gate reads the compiler's output for wire.Writer.CopyBytes, which makes
# every owned message body and envelope encoding — on the request path a BFT
# client's request and the TCP client's channel request: make+copy is one
# uncleared allocation and a memmove only while the compiler recognises the
# pair, and it stops doing so — runtime.makeslice, which clears the buffer
# first — when the source is a field again or a statement lands between the
# two. No allocation count can see the difference; the assembly does.
copy-gate:
	@$(GO) build -gcflags=-S ./internal/wire 2>&1 | awk '\
		/^[^ \t].* STEXT/ { in_fn = /\(\*Writer\)\.CopyBytes STEXT/; seen += in_fn } \
		in_fn && /runtime\.makeslice/ { bad = 1 } \
		END { if (!seen) { print "copy-gate: no assembly for wire.(*Writer).CopyBytes"; exit 1 } \
		      if (bad) { print "copy-gate: wire.(*Writer).CopyBytes calls runtime.makeslice: its buffer is cleared before it is overwritten"; exit 1 } \
		      print "copy-gate: wire.(*Writer).CopyBytes allocates without clearing" }'

# allocs-top prints the twenty call sites that allocate most often on the
# real path (gateway, secure channel, ecalls, ordering, execution, reply),
# every allocation sampled: where the next round of the allocation budget
# goes, without patching bench/ to get a profile. ALLOCS_BENCH picks the
# benchmark: EndToEndKV (the default) is a lone client's PUTs, EndToEndKVRead
# its GETs of one key, which are fast reads (`make allocs-top
# ALLOCS_BENCH=EndToEndKVRead`). The test binary and the profile land in bin/.
ALLOCS_BENCH := EndToEndKV

allocs-top:
	mkdir -p bin
	$(GO) test -run xxx -bench '^Benchmark$(ALLOCS_BENCH)$$' -benchtime 20000x -o bin/troxy.test -memprofile bin/allocs.prof -memprofilerate 1 .
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=20 bin/troxy.test bin/allocs.prof

# bench-check compiles and unit-tests the wall-clock benchmark, which is its
# own Go module (bench/go.mod replaces this one) and so is invisible to
# `go build ./...`, `go vet ./...` and `make check`: a rename in internal/...
# that bench/ imports would otherwise surface only in the benchmark
# pipeline. It writes nothing under bench/.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# bench-smoke runs the wall-clock benchmark itself, briefly: every workload
# for two seconds untraced and traced, on the real TCP runtime, where a body
# handed to env.Send is written later by another goroutine — a buffer reused
# too early corrupts a reply there, which the simulated tests can miss. It
# fails unless each run's last line says "correct":true and "failed":0, and it
# writes only .bench_build/ and bench/out/ (both gitignored).
WORKLOADS := write_small write_bigstate read_fast mixed_zipf

bench-smoke:
	@for w in $(WORKLOADS); do for trace in 0 1; do \
		out=$$(bash bench/run.sh --workload $$w --seconds 2 --trace $$trace) || exit 1; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		case "$$last" in \
		*'"correct":true'*'"failed":0,'*) echo "bench-smoke: $$w --trace $$trace: correct, none failed";; \
		*) echo "bench-smoke: $$w --trace $$trace: $$last"; exit 1;; \
		esac; \
	done; done

# examples runs each program under examples/ to completion. Each checks what
# it demonstrates and exits non-zero when a check fails; attestation is the one
# end-to-end walk of the enclave lifecycle (launch, quote, provision, restart).
# A failing example prints its output. failover, httpservice and quickstart
# are the programs that close a realnet Gateway under real client traffic, so
# they run under the race detector.
EXAMPLES := attestation wanreads
RACE_EXAMPLES := failover httpservice quickstart

examples:
	@for e in $(EXAMPLES) $(RACE_EXAMPLES); do \
		flags=; case " $(RACE_EXAMPLES) " in *" $$e "*) flags=-race;; esac; \
		out=$$($(GO) run $$flags ./examples/$$e 2>&1) || { printf '%s\n' "$$out"; echo "examples: $$e failed"; exit 1; }; \
		echo "examples: $$e ok$${flags:+ ($$flags)}"; \
	done

# race is the focused race-detector gate: the seeded chaos schedules and the
# two envelope-retention tests at the module root (a delivery's pooled writer
# is filled by the sending goroutine and put back by the receiving node's)
# plus the two most goroutine-heavy packages — the pipelined
# ordering core (internal/hybster, out-of-order slots with a windowed
# in-flight limit) and the TCP runtime (internal/realnet, per-peer send
# rings) — the ecall boundary (internal/enclave, whose copy-in buffers
# are handed out per thread slot) and the legacy client (internal/legacyclient,
# whose Conn group-commits writers into one flusher that writes with no lock
# held) at quick scale (-short trims the seed sets). `make check` still
# races the whole tree; this target is the fast pre-push loop and a named
# CI step, so a race in the hot packages fails a step that says which suite
# tripped instead of disappearing into the full-tree run.
race:
	$(GO) test -race -count=1 -short -run 'TestChaos|TestSentEnvelopesAreNotRetained|TestDeliveredEnvelopesAreNotRetained' .
	$(GO) test -race -count=1 -short ./internal/hybster/ ./internal/realnet/ ./internal/enclave/ ./internal/legacyclient/

# Seeded fault-injection suite (see EXPERIMENTS.md "Chaos"): network fault
# schedules and Byzantine replica harnesses under the race detector. -short
# trims the network-fault seed set; failures print the seed and the drawn
# plan, and rerunning the named subtest reproduces the schedule exactly.
chaos:
	$(GO) test -race -count=1 -short -run 'TestChaos' -v .

# Wall-clock chaos variant: the simulator's seeded plans replayed by the same
# driver (runChaos) and judged by the same checks (checkRun) on the
# goroutine/TCP runtime — two routers joined by a TCP bridge whose listener
# comes up late (exercising the bridge's dial backoff), each phase polled
# with a 30 s deadline instead of run for a span of virtual time. Covers
# both the network-fault seeds and the Byzantine host wrapper. A wall-clock
# failure may not repeat, so the whole `go test -v` output is kept in
# chaos-realnet.log (gitignored): a failed run prints its tail and leaves the
# rest there; a passing one prints the test results.
chaos-realnet:
	@$(GO) test -race -count=1 -run 'TestChaosRealnet' -v . > chaos-realnet.log 2>&1; \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
		tail -n 100 chaos-realnet.log; \
		echo "chaos-realnet: FAILED; the full output is in chaos-realnet.log"; \
		exit $$status; \
	fi; \
	grep -E '^(--- |ok )' chaos-realnet.log

# Large-state crash/restart soak (see EXPERIMENTS.md "Soak"): rolling
# crash/restart under a value-heavy workload at pipeline depth 4, asserting
# convergence, linearizability, bounded catch-up time, and a flat memory
# ceiling across cycles. soak-quick is the deterministic CI shape; soak runs
# the full-length schedule (TROXY_SOAK_FULL=1) for the numbers in
# EXPERIMENTS.md.
soak-quick:
	$(GO) test -count=1 -run 'TestSoakLargeState' -v .

soak:
	TROXY_SOAK_FULL=1 $(GO) test -count=1 -timeout 30m -run 'TestSoakLargeState' -v .

# Score the safety net (see DESIGN.md §9.5): every mutant of internal/mutate
# is applied to a temporary copy of this tree and run through build, troxy-lint,
# vet and tier 1, survivors through bench-quick, chaos and soak-quick too; the
# output is the kill matrix and, per analyzer, the mutants only it killed. A
# manual target like soak (about 70 s a mutant, 93 minutes in all on two
# vCPUs), for the PR that adds or retires a gate;
# `go run ./cmd/troxy-mutate <id>...` runs a few.
mutate:
	$(GO) run ./cmd/troxy-mutate

# Short fuzz smoke over the wire-facing decoders (hybster.Open's recovery
# messages among them), the secure channel's frame parsing, the HTTP request
# framing, the fast-read cache against its reference and the host's decoder
# of what a Troxy call returns (troxy.decodeActions). Interesting inputs
# found here are promoted into the packages' testdata/fuzz corpora, which
# every `go test` run replays.
fuzz:
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime 10s ./internal/msg/
	$(GO) test -run xxx -fuzz 'FuzzBatch$$' -fuzztime 10s ./internal/msg/
	$(GO) test -run xxx -fuzz 'FuzzDecodeEnvelope$$' -fuzztime 10s ./internal/msg/
	$(GO) test -run xxx -fuzz 'FuzzDecodeChannelFrames$$' -fuzztime 10s ./internal/msg/
	$(GO) test -run xxx -fuzz 'FuzzCoveredEncoding$$' -fuzztime 10s ./internal/msg/
	$(GO) test -run xxx -fuzz 'FuzzServerHandshake$$' -fuzztime 10s ./internal/securechannel/
	$(GO) test -run xxx -fuzz 'FuzzClientFinish$$' -fuzztime 10s ./internal/securechannel/
	$(GO) test -run xxx -fuzz 'FuzzSessionOpen$$' -fuzztime 10s ./internal/securechannel/
	$(GO) test -run xxx -fuzz 'FuzzOpenFrames$$' -fuzztime 10s ./internal/securechannel/
	$(GO) test -run xxx -fuzz 'FuzzIsHandshakeFrame$$' -fuzztime 10s ./internal/securechannel/
	$(GO) test -run xxx -fuzz 'FuzzManifestDecode$$' -fuzztime 10s ./internal/hybster/
	$(GO) test -run xxx -fuzz 'FuzzSnapshotHead$$' -fuzztime 10s ./internal/hybster/
	$(GO) test -run xxx -fuzz 'FuzzChunkAssembly$$' -fuzztime 10s ./internal/hybster/
	$(GO) test -run xxx -fuzz 'FuzzOpen$$' -fuzztime 10s ./internal/hybster/
	$(GO) test -run xxx -fuzz 'FuzzRestoreSink$$' -fuzztime 10s ./internal/app/
	$(GO) test -run xxx -fuzz 'FuzzSnapshotIter$$' -fuzztime 10s ./internal/app/
	$(GO) test -run xxx -fuzz 'FuzzCacheMatchesReference$$' -fuzztime 10s ./internal/troxy/
	$(GO) test -run xxx -fuzz 'FuzzDecodeActions$$' -fuzztime 10s ./internal/troxy/
	$(GO) test -run xxx -fuzz 'FuzzExtractRequest$$' -fuzztime 10s ./internal/httpfront/
