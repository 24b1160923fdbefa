#!/usr/bin/env bash
# Sanitizer gates for the unsafe/concurrent core (DESIGN.md §14).
#
# 1. ThreadSanitizer over the scheduler chaos + pair-granular retry suites
#    and the concurrent-reader serving suite: the work-stealing scheduler
#    and its atomics are the riskiest concurrency surface in the workspace,
#    and served epochs share segments and tally tables across threads by
#    reference count. The L8 allowlist documents the *intended*
#    happens-before edges; TSan checks the actual ones under seeded fault
#    injection.
# 2. Miri over the columnar differential suite with AGGSKY_FORCE_SCALAR=1:
#    the scalar columnar kernel is the oracle the unsafe AVX2 module is
#    pinned bit-identical against, so its memory model must be spotless.
#
# Both gates need nightly-only components. On toolchains that lack them the
# gate prints a visible `SKIP(<gate>): <reason>` line and the script still
# exits 0 — a skip must never masquerade as a pass, but must not fail
# machines that cannot run the tool either. Real races/UB exit nonzero.

set -u
cd "$(dirname "$0")/.."

status=0

echo "== sanitizers: ThreadSanitizer (scheduler chaos + retry + serving suites) =="
if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "SKIP(tsan): no nightly toolchain (rustup toolchain install nightly)"
else
    target="$(rustc +nightly -vV | sed -n 's/^host: //p')"
    case "$target" in
        x86_64-unknown-linux-gnu | aarch64-unknown-linux-gnu | x86_64-apple-darwin | aarch64-apple-darwin) ;;
        *)
            echo "SKIP(tsan): ThreadSanitizer unsupported on host target ${target}"
            target=""
            ;;
    esac
    if [ -n "$target" ]; then
        # std ships uninstrumented (no rust-src offline, so no -Zbuild-std);
        # -Cunsafe-allow-abi-mismatch lets the instrumented workspace link
        # against it, and tsan-suppressions.txt mutes the two known
        # libtest-harness reports that the uninstrumented std produces.
        # AGGSKY_SERVE_LOCKSTEP makes serve_concurrency hand epochs over
        # through atomics TSan sees, instead of racing reads against
        # publishes on the epoch lock, whose slow path it does not see.
        export RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
        export TSAN_OPTIONS="suppressions=$PWD/tsan-suppressions.txt"
        export AGGSKY_SERVE_LOCKSTEP=1
        if CARGO_TARGET_DIR=target/tsan cargo +nightly test -q --offline --target "$target" \
            -p aggsky-core --features chaos,invariants --lib &&
            CARGO_TARGET_DIR=target/tsan cargo +nightly test -q --offline --target "$target" \
                --features chaos,invariants --test chaos --test execution_control --test crash_recovery \
                --test serve_concurrency; then
            echo "PASS(tsan)"
        else
            echo "FAIL(tsan): data race or test failure under ThreadSanitizer"
            status=1
        fi
        unset RUSTFLAGS TSAN_OPTIONS AGGSKY_SERVE_LOCKSTEP
    fi
fi

echo "== sanitizers: Miri (scalar columnar differential) =="
if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "SKIP(miri): miri component not installed (rustup component add miri --toolchain nightly)"
else
    # AGGSKY_FORCE_SCALAR pins the scalar columnar path: Miri cannot
    # execute AVX2 intrinsics, and the scalar kernel is exactly the oracle
    # the unsafe SIMD module is differentially pinned against. The env var
    # must be forwarded through Miri's isolation explicitly.
    if CARGO_TARGET_DIR=target/miri AGGSKY_FORCE_SCALAR=1 \
        MIRIFLAGS="-Zmiri-env-forward=AGGSKY_FORCE_SCALAR" \
        cargo +nightly miri test -q --offline --test columnar_differential; then
        echo "PASS(miri)"
    else
        echo "FAIL(miri): undefined behavior or test failure under Miri"
        status=1
    fi
fi

echo "== sanitizers: Miri (persist frame codec + checkpoint store) =="
if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "SKIP(miri-persist): miri component not installed (rustup component add miri --toolchain nightly)"
else
    # The checkpoint store writes real files (temp + fsync + rename), so
    # Miri's default filesystem isolation must be lifted; fsync degrades to
    # a no-op under Miri, which is fine — the gate checks the codec's and
    # store's memory model, not crash durability (crash_recovery does that
    # natively).
    if CARGO_TARGET_DIR=target/miri \
        MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -q --offline -p aggsky-core --features invariants persist; then
        echo "PASS(miri-persist)"
    else
        echo "FAIL(miri-persist): undefined behavior or test failure under Miri"
        status=1
    fi
fi

exit $status
