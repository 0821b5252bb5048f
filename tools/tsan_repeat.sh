#!/usr/bin/env bash
# Repeats the tests of the ownership-watcher contract in a ThreadSanitizer
# build. Watchers and GetAsync continuations run on whichever thread
# publishes an object (a raylet worker, a driver, the fabric reactor), so
# these tests race real threads; one clean pass proves little.
#
#  - failover: a node killed around a task's completion, even between two
#    of its outputs, must neither re-dispatch the finished task nor hide
#    the loss; a failed-over attempt's late error must not be published.
#  - watcher contract: watchers run inline on the marking thread and may
#    re-enter the table; unfired watchers die with it.
#  - exactly once: a Get whose deadline lands on its producer's completion
#    completes once, and Shutdown finds nothing left linked.
#
# Usage: tools/tsan_repeat.sh <tsan-build-dir> [repeats]   (default 50)
set -euo pipefail

DIR="${1:?usage: tools/tsan_repeat.sh <tsan-build-dir> [repeats]}"
REPEATS="${2:-50}"

RUNTIME_FILTER='RuntimeTest.RecoveryDisabledReportsDataLoss'
RUNTIME_FILTER+=':RuntimeTest.KillFromOutputContinuationDoesNotReexecute'
RUNTIME_FILTER+=':RuntimeTest.KillBetweenOutputs*'
RUNTIME_FILTER+=':RuntimeTest.FailedOverAttemptsFailureIsNotPublished'
RUNTIME_FILTER+=':RuntimeTest.GetAsyncRacingItsDeadlineCompletesOnce'
RUNTIME_FILTER+=':RuntimeTest.ShutdownCompletesEachAbandonedGetOnceWithUnavailable'
RUNTIME_FILTER+=':SchedulerTest.ClaimedTaskIsNotFailedOver'
RUNTIME_FILTER+=':SchedulerTest.FailedOverAttemptCannotClaim'
OWNERSHIP_FILTER='OwnershipTableTest.*:ShardCounts/ShardedWatchStormTest.*'

"$DIR/tests/runtime_test" --gtest_filter="$RUNTIME_FILTER" \
  --gtest_repeat="$REPEATS" --gtest_brief=1
"$DIR/tests/ownership_test" --gtest_filter="$OWNERSHIP_FILTER" \
  --gtest_repeat="$REPEATS" --gtest_brief=1
