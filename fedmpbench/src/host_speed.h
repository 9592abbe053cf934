#ifndef FEDMPBENCH_HOST_SPEED_H_
#define FEDMPBENCH_HOST_SPEED_H_

namespace fedmpbench {

// The host's current clock, read with a fixed calibration kernel that lives
// in the benchmark (not in src/), so no change to the library can move it.
//
// A shared VM does not run at one speed. When other tenants load the host,
// its cores drop from full turbo to a lower clock (1.5x slower, while no
// steal time shows) and the physical cores and caches they share get busier,
// and round times grow by 2.0-2.4x. The benchmark calibrates the clock
// before the first and after every repetition of a run, and reports the
// timed end-to-end metrics at a fixed reference state of the host, scaled by
// the run's median calibration (ReferenceScale).

// Host seconds of one calibration burst on this thread: the median of a few
// bursts of a dependent integer chain, which takes a fixed number of core
// cycles, so its time is inversely proportional to the core's clock.
double CalibrationSeconds();

// What one calibration burst takes in the reference state: the fastest the
// 4-core VM the benchmark was defined on ran (a Xeon at full turbo, with no
// contention showing).
constexpr double kReferenceCalibrationS = 3.0e-4;

// How round time follows the calibrated clock period on that VM: as its
// square. A busy host lowers the clock and adds contention together, so a
// 1.5x slower calibration came with 2.0-2.4x slower rounds on all three
// workloads, and within a set of ten runs the fitted exponent was 1.7-2.4
// (fleet_10k, async_lstm_chaos).
constexpr double kClockExponent = 2.0;

// The factor that turns host seconds into seconds in the reference state,
// given the calibration the host ran at:
// (kReferenceCalibrationS / calibration_s) ^ kClockExponent. Above 1 when
// the host ran faster than the reference.
double ReferenceScale(double calibration_s);

}  // namespace fedmpbench

#endif  // FEDMPBENCH_HOST_SPEED_H_
