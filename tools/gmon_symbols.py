#!/usr/bin/env python3
"""Flat profile from a gmon.out histogram over every symbol `nm -n` lists.

gprof folds samples that land in compiler clones (`foo.constprop.0`,
`foo.isra.0`, `foo.cold`, `target_clones` variants) into whatever symbol it
keeps just before them, so a hot clone can make an unrelated function look
hot.  This script reads the PC-sample histogram of a gmon.out itself and
charges each histogram bin to the `nm` symbol(s) it overlaps — clones
included — in proportion to the overlap.

Recipe (histogram only, no per-call mcount cost skewing the profile):

  cmake -B build-pg -S . -DCMAKE_BUILD_TYPE=Release \\
        -DCMAKE_EXE_LINKER_FLAGS="-pg -no-pie"
  cmake --build build-pg --target hcs_sim
  build-pg/hcs_sim run perfbench/workloads/pruned_grid.json \\
        --set run.jobs=1 --set run.trials=12 --quiet  # writes ./gmon.out
  python3 tools/gmon_symbols.py build-pg/hcs_sim gmon.out --top 25 --layers

Linking with -pg (objects compiled without it) pulls in the profiling
start-up that samples the PC; -no-pie keeps the sampled addresses equal to
the link-time addresses `nm` prints.  Call arcs (present only when objects
are compiled with -pg) are read and counted but not used.

Usage: gmon_symbols.py BINARY GMON [--top N] [--grep REGEX] [--layers]
"""

import argparse
import bisect
import re
import struct
import subprocess
import sys

TAG_TIME_HIST, TAG_CG_ARC, TAG_BB_COUNT = 0, 1, 2
# "address [size] type name"; the size has the address's width.
NM_LINE = re.compile(r"^([0-9a-f]{8,}) (?:([0-9a-f]{8,}) )?(\S) (.*)$")
TEXT_TYPES = set("tTwWiI")
# _ZN[K]3hcs<len><namespace>...: a function whose own name is in hcs::ns.
LAYER = re.compile(r"^_ZNK?3hcs(\d+)")


def read_gmon(path, ptr_size=8):
    """Returns (histograms, arc_count): histograms is a list of
    (low_pc, high_pc, prof_rate, counts)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"gmon":
        raise ValueError(f"{path}: not a gmon.out file")
    ptr = "<Q" if ptr_size == 8 else "<I"
    pos, hists, arcs = 20, [], 0
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == TAG_TIME_HIST:
            low, high = (struct.unpack_from(ptr, data, pos + i * ptr_size)[0]
                         for i in range(2))
            pos += 2 * ptr_size
            size, rate = struct.unpack_from("<iI", data, pos)
            pos += 8 + 15 + 1  # hist_size, prof_rate, dimen, dimen_abbrev
            counts = struct.unpack_from(f"<{size}H", data, pos)
            pos += 2 * size
            hists.append((low, high, rate, counts))
        elif tag == TAG_CG_ARC:
            pos += 2 * ptr_size + 4
            arcs += 1
        elif tag == TAG_BB_COUNT:
            (n,) = struct.unpack_from("<I", data, pos)
            pos += 4 + n * 2 * ptr_size
        else:
            raise ValueError(f"{path}: unknown record tag {tag} at {pos - 1}")
    return hists, arcs


def read_symbols(binary):
    """Text symbols sorted by address, as (start, end, mangled name); a
    symbol without a size extends to the next one."""
    out = subprocess.run(["nm", "-n", "-S", "--defined-only", binary],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    raw = []
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if m and m.group(3) in TEXT_TYPES:
            size = int(m.group(2), 16) if m.group(2) else None
            raw.append((int(m.group(1), 16), size, m.group(4)))
    symbols = []
    for i, (start, size, name) in enumerate(raw):
        nxt = raw[i + 1][0] if i + 1 < len(raw) else start + (size or 1)
        end = start + size if size else nxt
        if end > start:
            symbols.append((start, end, name))
    return symbols


def demangled(names):
    """Mangled -> demangled, through one c++filt call."""
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return dict(zip(names, out.splitlines()))


def layer_of(mangled):
    """`hcs::<namespace>` that owns the symbol itself (not its argument or
    return types), read from the mangled nested name; None outside hcs."""
    m = LAYER.match(mangled)
    if not m:
        return None
    start = m.end()
    return "hcs::" + mangled[start:start + int(m.group(1))]


def attribute(hists, symbols):
    """Samples per symbol name, plus samples outside every symbol."""
    starts = [s[0] for s in symbols]
    per_symbol, unknown = {}, 0.0
    for low, high, _, counts in hists:
        width = (high - low) / len(counts) if counts else 0
        for i, count in enumerate(counts):
            if count == 0:
                continue
            lo, hi = low + i * width, low + (i + 1) * width
            k = max(bisect.bisect_right(starts, lo) - 1, 0)
            charged = 0.0
            while k < len(symbols) and symbols[k][0] < hi:
                start, end, name = symbols[k]
                overlap = min(hi, end) - max(lo, start)
                if overlap > 0:
                    share = count * overlap / width
                    per_symbol[name] = per_symbol.get(name, 0.0) + share
                    charged += share
                k += 1
            unknown += count - charged
    return per_symbol, unknown


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("binary")
    parser.add_argument("gmon")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--grep", help="also print the summed share of "
                        "symbols whose demangled name matches this regex")
    parser.add_argument("--layers", action="store_true",
                        help="also print the share of each hcs namespace, "
                        "by the namespace of each symbol's own name")
    args = parser.parse_args()

    hists, arcs = read_gmon(args.gmon)
    if not hists:
        print("gmon_symbols: no histogram in", args.gmon, file=sys.stderr)
        return 1
    symbols = read_symbols(args.binary)
    if symbols and not any(low < symbols[-1][1] and high > symbols[0][0]
                           for low, high, _, _ in hists):
        print("gmon_symbols: histogram addresses lie outside the binary's "
              "symbols; link with -no-pie", file=sys.stderr)
        return 1
    per_symbol, unknown = attribute(hists, symbols)
    names = demangled(list(per_symbol))
    total = sum(per_symbol.values()) + unknown
    rate = hists[0][2] or 100

    def row(samples, label):
        print(f"{100 * samples / total:7.2f} {samples / rate:8.3f}  {label}")

    print(f"{total:.0f} samples ({total / rate:.2f} s at {rate} Hz), "
          f"{arcs} call arcs, {unknown:.0f} samples outside any symbol")
    print(f"{'self %':>7} {'self s':>8}  symbol")
    ranked = sorted(per_symbol.items(), key=lambda kv: -kv[1])
    for mangled, samples in ranked[:args.top]:
        row(samples, names[mangled])
    if args.grep:
        pattern = re.compile(args.grep)
        row(sum(v for k, v in per_symbol.items()
                if pattern.search(names[k])),
            f"(all symbols matching /{args.grep}/)")
    if args.layers:
        layers = {}
        for mangled, samples in per_symbol.items():
            layer = layer_of(mangled) or "(outside hcs)"
            layers[layer] = layers.get(layer, 0.0) + samples
        for layer, samples in sorted(layers.items(), key=lambda kv: -kv[1]):
            row(samples, layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
