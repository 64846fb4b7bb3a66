GO ?= go

.PHONY: build test vet turbo-vet fmt scorecard scorecard-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bin/turbo-vet: $(wildcard cmd/turbo-vet/*.go internal/analysis/*/*.go) go.mod
	$(GO) build -o $@ ./cmd/turbo-vet

turbo-vet: bin/turbo-vet

# vet runs the standard vet suite plus the repo's own analyzers
# (chargepath, snapshotdet, lockorder, errtaxonomy).
vet: bin/turbo-vet
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/bin/turbo-vet ./...

fmt:
	gofmt -l -w cmd examples internal

# scorecard prints the four size numbers ROADMAP aim 2 tracks, so a
# step's delta is read off two runs instead of hand-counted: non-test Go
# lines outside vendor/, benchmark/ and testdata/; the flags turbo-server
# lists; //turbo:allow escapes in that same set of files (the analyzers'
# own sources only document the directive); and the bytes of the
# turbo-server binary, built with -trimpath so the checkout's path does
# not count and with -ldflags=-w so only linked code and data do: the
# DWARF sections -w drops are zlib-compressed, and moved the count by
# hundreds of bytes when unrelated lines changed.
SCORED = find . -name '*.go' ! -name '*_test.go' ! -path './vendor/*' \
	! -path './benchmark/*' ! -path '*/testdata/*'

scorecard:
	@printf 'non-test go lines    %s\n' "$$($(SCORED) -print0 | xargs -0 cat | wc -l)"
	@printf 'turbo-server flags   %s\n' "$$($(GO) run ./cmd/turbo-server -h 2>&1 | grep -c '^  -')"
	@printf '//turbo:allow sites  %s\n' "$$($(SCORED) ! -path './internal/analysis/*' -print0 | xargs -0 cat | grep -c '//turbo:allow(')"
	@$(GO) build -trimpath -ldflags=-w -o bin/turbo-server ./cmd/turbo-server
	@printf 'turbo-server bytes   %s\n' "$$(wc -c < bin/turbo-server)"

# scorecard-check turns the four numbers into a ratchet: it fails when
# any reads above its ceiling (CEILINGS, in scorecard's line order: lines,
# flags, //turbo:allow sites, binary bytes). Lower a ceiling when a PR
# earns it; raising one is a decision to write down in ROADMAP, not a side
# effect. The byte ceiling was measured with go1.24.0 linux/amd64; a
# toolchain change re-measures it. It also fails when turbo-server links
# a package it must not: encoding/gob (snapshot sections have their own
# codec), encoding/json and the encoding/base64 and unicode/utf16 it
# brings (httpd appends every body and scans every request itself,
# httpd/codec.go and httpd/scan.go), net/http/pprof, net/http and
# crypto/tls (turbo-server speaks HTTP/1.1 itself, internal/server/httpd,
# and serves no TLS), and net and runtime/cgo: the binary is static, its
# sockets are syscall on the runtime poller (httpd/sock.go), and no
# package may link libc back in.
CEILINGS = 16108 14 1 2801156
BANNED_DEPS = encoding/gob encoding/json encoding/base64 unicode/utf16 net/http/pprof net/http crypto/tls net runtime/cgo

scorecard-check:
	@$(MAKE) -s scorecard | awk -v ceilings='$(CEILINGS)' ' \
		BEGIN { split(ceilings, max) } \
		{ print } \
		$$NF > max[NR] { printf "scorecard: line %d reads above its ceiling, %d\n", NR, max[NR]; bad = 1 } \
		END { exit bad || NR != 4 }'
	@banned="$$($(GO) list -deps ./cmd/turbo-server | grep -Fx $(BANNED_DEPS:%=-e %))"; \
		if [ -n "$$banned" ]; then echo "scorecard: turbo-server links $$banned"; exit 1; fi
