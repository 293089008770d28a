#!/usr/bin/env bash
# Compiles the program (src/main/scala) and the benchmark (perfbench/src)
# with the Scala compiler shipped in the Spark distribution.
#
# Usage: SPARK_HOME=<Spark 4 distribution> perfbench/build.sh OUT_DIR
# (run from the repository root).
set -euo pipefail
out="$1"
jars="${SPARK_HOME:?set SPARK_HOME to a Spark 4 distribution}/jars"
[ -d src/main/scala ] || { echo "build.sh: src/main/scala not found" >&2; exit 2; }
[ -d "$jars" ] || { echo "build.sh: Spark jars not found in $jars" >&2; exit 2; }
rm -rf "$out"
mkdir -p "$out"
mapfile -t sources < <(find src/main/scala perfbench/src -name '*.scala' | sort)
java -Xss8m -Xmx1g -XX:-UsePerfData -Djava.io.tmpdir="$(dirname "$out")" -cp "$jars/*" scala.tools.nsc.Main -usejavacp -nowarn \
  -d "$out" "${sources[@]}"
