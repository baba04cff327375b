// The fabric-wide telemetry plane: one object bundling the four surfaces.
//
//  * metrics — MetricsRegistry federating every subsystem's counters;
//  * recorder — control-plane flight recorder (bounded event ring);
//  * causal — opt-in span trees, one per operation: control-plane ones and
//    the first packets of armed flows;
//  * assurance — declarative SLOs and continuous invariants over the rest.
//
// SdaFabric owns one; standalone subsystems (FaultPlane, WlanController,
// RouteReflector) register into whichever instance the experiment uses.
#pragma once

#include "telemetry/assurance.hpp"
#include "telemetry/causal_trace.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace sda::telemetry {

struct Telemetry {
  MetricsRegistry metrics;
  FlightRecorder recorder;
  CausalTracer causal;
  AssuranceEngine assurance;
};

}  // namespace sda::telemetry
