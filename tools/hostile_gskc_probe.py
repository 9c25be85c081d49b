#!/usr/bin/env python3
"""Resealed-corruption probe for the GSKC checkpoint reader.

For each seed, overwrites 8 bytes with 0xff at a seed-chosen offset inside
the first 64 payload bytes of a checkpoint, recomputes the FNV-1a checksum
so the envelope still verifies (it is an integrity check, not a MAC), and
runs `gsketch_cli inspect` on the result under an address-space limit.
A clean reader exits 0 (the corruption happened to parse) or 1 (rejected);
a crash or abort (exit >= 128, or death by signal) fails the probe.

    python3 tools/hostile_gskc_probe.py build/gsketch_cli \
        tests/data/golden_connectivity.gskc [--seeds 60] [--limit-kib 2000000]

The offset of seed s is random.Random(s).randrange(56), so every overwrite
stays inside the first 64 payload bytes. Against a reader that allocates
declared sizes before checking them, 12 of the 60 default seeds abort;
tests/serde_test.cc replays every offset in memory.
"""
import argparse
import collections
import os
import random
import resource
import struct
import subprocess
import sys
import tempfile

HEADER = 32   # magic, version, alg, flags, stream_pos, payload size
TRAILER = 8   # FNV-1a over bytes [8, size - 8)
MASK = (1 << 64) - 1


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK
    return h


def corrupt(blob, seed):
    out = bytearray(blob)
    off = HEADER + random.Random(seed).randrange(56)
    out[off:off + 8] = b"\xff" * 8
    out[-TRAILER:] = struct.pack("<Q", fnv1a(out[8:-TRAILER]))
    return bytes(out), off - HEADER


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cli")
    ap.add_argument("checkpoint")
    ap.add_argument("--seeds", type=int, default=60)
    ap.add_argument("--limit-kib", type=int, default=2000000)
    args = ap.parse_args()

    with open(args.checkpoint, "rb") as f:
        blob = f.read()
    limit = args.limit_kib * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    codes = collections.Counter()
    crashed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.gskc")
        for seed in range(args.seeds):
            data, off = corrupt(blob, seed)
            with open(path, "wb") as f:
                f.write(data)
            rc = subprocess.run([args.cli, "inspect", path],
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                preexec_fn=cap).returncode
            codes[rc] += 1
            if rc < 0 or rc >= 128:
                crashed.append((seed, off, rc))
    summary = ", ".join(f"exit {c}: {k}" for c, k in sorted(codes.items()))
    print(f"{args.seeds} seeds: {summary}")
    for seed, off, rc in crashed:
        print(f"crash: seed {seed} (payload offset {off}) -> {rc}")
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
