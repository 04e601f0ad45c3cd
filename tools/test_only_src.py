#!/usr/bin/env python3
"""Lists every src/ function that only test binaries keep.

The library is meant to hold what the service, the benches and the examples
call; code that exists only to be compared against belongs in tests/. This
script finds the exceptions mechanically, from link maps:

  1. It builds every target of the root project, and the service-load
     benchmark (bench/service_load/) in a build directory of its own, at -O0
     -g with -ffunction-sections, so every function is its own
     .text.<symbol> section and no caller is hidden by inlining. Executables
     link with -Wl,--gc-sections, and a CMAKE_CXX_LINK_EXECUTABLE rule
     appends -Wl,-Map=<TARGET>.map, so each map names the sections its
     binary kept.
  2. A candidate is an external text symbol that some test binary
     (build-audit/tests/) kept and no other binary (benches, examples, the
     service-load benchmark) kept, and that src/ defines: either libosdp.a
     defines it, or `nm -l` on a test binary that kept it puts its
     definition in a src/ header (an inline or template function that no
     src/*.cc instantiates, marked [header] in the list). A header template
     instantiation is left out when another binary keeps another
     instantiation of the same function (same name, same parameter count):
     its source lines run outside the tests too. Standard-library
     instantiations, the local helpers of an anonymous namespace, lambda
     bodies, Result<T> members and constructors, destructors and
     assignments are left out: each is reached only through a named
     function, which is listed in its place.
  3. Every candidate must match one entry of REASONS below, a regex over
     its demangled name with a one-line reason to keep it. A candidate
     with no reason is printed under "no reason"; a reason that matches no
     candidate is printed as stale. Either makes the script exit 1, so the
     CI job that runs it fails; it exits 0 when every candidate has a
     reason and every reason matches one.

Usage: python3 tools/test_only_src.py
The build directories are build-audit/ and build-audit-service-load/ at the
repository root; later runs rebuild incrementally, with one job per CPU it may use.
"""

import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-audit")
BUILD_SERVICE_LOAD = os.path.join(ROOT, "build-audit-service-load")

# (regex over the demangled name, reason). The first match wins.
REASONS = [
    (r"^osdp::AccessControlledDb::|^osdp::TableView::empty\(|"
     r"^osdp::RowMask::(AndNotWith|Intersects)\(",
     "paper Sec. 1: the Truman / non-Truman access-control strawmen the "
     "exclusion attack breaks, and the mask algebra they use; pinned by "
     "attack_test"),
    (r"^osdp::(AnalyzeReachabilityConstraints|FindLeakyTrajectories)\(|"
     r"^osdp::ApSetPolicy::(IsSensitiveAp|num_aps|sensitive_aps)\(",
     "paper Sec. 7: constraint-closed AP policies; pinned by "
     "constraints_test"),
    (r"^osdp::(PartitionedHistogramRelease|SharedLedger::Parallel)\(",
     "paper Appendix 10, Theorem 10.2: partitioned release under parallel "
     "composition; pinned by constraints_test and policy_test"),
    (r"^osdp::Policy::(AllSensitive|AllNonSensitive|IsRelaxationOfOn)\(|"
     r"^osdp::RowMask::IsSubsetOf\(",
     "paper Sec. 3.3, Definitions 3.5 and 3.7: the policy relaxation order "
     "and its extremes; pinned by policy_test and property_test"),
    (r"^osdp::(Domain1D::Categorical|ReadCsvTable|QueryService::CloseSession|"
     r"obs::StageName|obs::TraceRing::Dump(Json|Text)|"
     r"TableView::(table|snapshot))\(",
     "service API: categorical domains, CSV load against a declared schema, "
     "session close, trace dumps and a released sample's table and pinned "
     "generation, which no bench or example reads"),
    (r"^osdp::(DecodeNGram|Histogram2D::(Add|At)|RowMask::FromBools|"
     r"FaultRegistry::hits|obs::MetricsSnapshot::FindCounter|"
     r"LogisticRegression::weights|Value::operator(==|!=)|operator<<)\(",
     "test seam: inverse, cell access, construction, comparison, printing "
     "and read-back helpers tests use to state expectations"),
    (r"^osdp::(ChunkedColumn<.*>::(ChunkIdentity|SpineIdentity|num_chunks|"
     r"size)|RowMask::(BlockIdentity|SpineIdentity)|"
     r"row_mask_internal::BlockRef::identity)\(",
     "test seam: chunk geometry and identity accessors; pointer equality "
     "pins that snapshots, copies and appends share chunks and mask blocks "
     "instead of copying"),
]

LINK_RULE = ("<CMAKE_CXX_COMPILER> <FLAGS> <CMAKE_CXX_LINK_FLAGS> "
             "<LINK_FLAGS> <OBJECTS> -o <TARGET> <LINK_LIBRARIES> "
             "-Wl,-Map=<TARGET>.map")


def run(cmd, **kw):
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, **kw)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        sys.exit("command failed: " + " ".join(cmd))
    return done.stdout


def build(source, build_dir):
    run(["cmake", "-S", source, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Audit",
         "-DCMAKE_CXX_FLAGS=-O0 -g -ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
         "-DCMAKE_CXX_LINK_EXECUTABLE=" + LINK_RULE])
    jobs = len(os.sched_getaffinity(0))  # the CPUs this process may use
    run(["cmake", "--build", build_dir, "-j", str(jobs)])


def kept_sections(map_path):
    """Names of the .text.* input sections the linker kept."""
    with open(map_path, errors="replace") as f:
        text = f.read()
    _, _, kept = text.partition("Linker script and memory map")
    return set(re.findall(r"^ \.text\.(\S+)", kept, re.M))


def library_symbols(archive):
    """Mangled external text symbols defined in the archive."""
    out = run(["nm", "--defined-only", archive])
    return {parts[2] for parts in (line.split() for line in out.splitlines())
            if len(parts) == 3 and parts[1] in ("T", "W")}


def header_symbols(executables, symbols):
    """The subset of `symbols` whose definition `nm -l` places in a src/
    header of some executable in `executables`."""
    src = os.path.join(ROOT, "src") + os.sep
    found = set()
    for exe in executables:
        for line in run(["nm", "-l", "--defined-only", exe]).splitlines():
            head, _, where = line.partition("\t")
            parts = head.split()
            if len(parts) != 3 or parts[2] not in symbols:
                continue
            path = os.path.realpath(where.rsplit(":", 1)[0])
            if path.startswith(src) and path.endswith(".h"):
                found.add(parts[2])
    return found


def overload_key(name):
    """(qualified name, parameter count) of a demangled function: one key
    for every instantiation of a function template or class template
    member."""
    head, _, rest = strip_templates(name).partition("(")
    params = rest.rsplit(")", 1)[0].strip()
    return head.split(" ")[-1], params.count(",") + 1 if params else 0


def demangle(symbols):
    out = run(["c++filt"], input="\n".join(symbols))
    return dict(zip(symbols, out.splitlines()))


def strip_templates(text):
    """`text` with every template argument list removed."""
    text = re.sub(r"operator(<<=?|<=?|>>=?|>=?|->)", "operator@", text)
    out, depth = [], 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(depth - 1, 0)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def function_name(name):
    """The qualified name of a demangled function, without its return type,
    template arguments and parameters: "osdp::Table::AppendRows"."""
    head = strip_templates(name).split("(", 1)[0]
    return head.split(" ")[-1]


def reportable(name):
    """False for what a named function reaches only as an implementation
    detail: std:: and __gnu_cxx:: code, anonymous-namespace helpers, lambda
    bodies, Result<T> members, and constructors, destructors and
    assignments, which follow from a type's use through its named
    functions."""
    if "(anonymous namespace)" in name or "{lambda" in name:
        return False
    func = function_name(name)
    if not func.startswith("osdp::") or func.startswith("osdp::Result::"):
        return False
    parts = func.split("::")
    if len(parts) >= 2 and parts[-1].lstrip("~") == parts[-2]:
        return False  # constructor or destructor
    return parts[-1] != "operator="


def main():
    build(ROOT, BUILD)
    build(os.path.join(ROOT, "bench", "service_load"), BUILD_SERVICE_LOAD)

    test_maps = glob.glob(os.path.join(BUILD, "tests", "*.map"))
    other_maps = (glob.glob(os.path.join(BUILD, "bench", "*.map")) +
                  glob.glob(os.path.join(BUILD, "examples", "*.map")) +
                  glob.glob(os.path.join(BUILD_SERVICE_LOAD, "*.map")))
    if not test_maps or not other_maps:
        sys.exit("no link maps under %s" % BUILD)

    kept_by = {m: kept_sections(m) for m in test_maps}
    by_tests = set().union(*kept_by.values())
    by_others = set().union(*(kept_sections(m) for m in other_maps))
    library = library_symbols(os.path.join(BUILD, "libosdp.a"))
    test_only = by_tests - by_others
    # Outside the library, only osdp:: symbols (_ZN4osdp..., _ZNK4osdp...)
    # that a test keeps can be src/ header code; nm -l reads just the test
    # binaries that keep one.
    osdp_symbol = re.compile(r"_ZN[KVRO]*4osdp")
    outside = {s for s in test_only - library if osdp_symbol.match(s)}
    readers = [m[:-len(".map")] for m, kept in sorted(kept_by.items())
               if kept & outside]
    header = header_symbols(readers, outside)
    names = demangle(sorted((test_only & library) | header))
    elsewhere = {overload_key(n) for n in demangle(sorted(
        s for s in by_others if osdp_symbol.match(s))).values()}
    header = {s for s in header if overload_key(names[s]) not in elsewhere}
    candidates = sorted({n.replace("[abi:cxx11]", "") +
                         (" [header]" if s in header else "")
                         for s, n in names.items()
                         if (s in library or s in header) and reportable(n)})

    compiled = [(re.compile(p), reason) for p, reason in REASONS]
    used = set()
    explained, unexplained = {}, []
    for name in candidates:
        for i, (pattern, reason) in enumerate(compiled):
            if pattern.search(name):
                used.add(i)
                explained.setdefault(reason, []).append(name)
                break
        else:
            unexplained.append(name)

    print("src/ functions only test binaries keep: %d (%d test maps, %d "
          "other maps)" % (len(candidates), len(test_maps), len(other_maps)))
    for reason, members in explained.items():
        print("\n# " + reason)
        for name in members:
            print("  " + name)
    for i, (pattern, reason) in enumerate(REASONS):
        if i not in used:
            print("\nstale reason (matches nothing): %s -- %s"
                  % (pattern, reason))
    if unexplained:
        print("\n# no reason: keep with a reason in REASONS, move to tests/, "
              "or delete")
        for name in unexplained:
            print("  " + name)
    return 1 if unexplained or len(used) < len(REASONS) else 0


if __name__ == "__main__":
    sys.exit(main())
