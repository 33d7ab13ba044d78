#!/usr/bin/env sh
# Tier-1 verify: exactly what CI runs. Usage: scripts/check.sh [jobs]
set -eu
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
cmake -B build -S .
cmake --build build -j "$JOBS"
cd build && ctest --output-on-failure -j "$JOBS"
# Second pass on one worker: global_pool() is then an inline pool.
OTA_THREADS=1 ctest --output-on-failure -j "$JOBS"
