// Network cost model for the simulated fabric.
//
// The paper's cluster has two interconnects: QDR InfiniBand used by PaPar's
// MR-MPI backend through MVAPICH2 RDMA, and 10 GbE sockets used by
// PowerLyra's shuffle. Each link follows a LogGP-style alpha-beta model: a
// remote message of `n` bytes occupies the *sender* for n/bandwidth (NIC
// serialization), crosses the wire in `latency`, and occupies the receiver
// for another n/bandwidth when clocked in. Rank-local transfers are charged
// only a memcpy cost against `local_bandwidth`.
#pragma once

#include <cstddef>
#include <cstdint>

namespace papar::mp {

struct NetworkModel {
  /// One-way message latency in seconds.
  double latency = 2e-6;
  /// Link bandwidth in bytes/second.
  double bandwidth = 4e9;
  /// Intra-rank copy bandwidth in bytes/second.
  double local_bandwidth = 2e10;
  /// Scale applied to measured CPU seconds before they enter a rank's
  /// virtual clock. 1.0 charges real single-thread time; the benches use
  /// ~1/11 to model one simulated rank standing in for a 16-core cluster
  /// node running the work data-parallel at ~70% efficiency.
  double compute_scale = 1.0;

  /// Virtual-time cost of moving `bytes` between two distinct ranks.
  double remote_cost(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bandwidth;
  }

  /// Virtual-time cost of a rank "sending" to itself.
  double local_cost(std::size_t bytes) const {
    return static_cast<double>(bytes) / local_bandwidth;
  }

  /// InfiniBand/RDMA-like fabric (MVAPICH2 on QDR IB in the paper).
  static NetworkModel rdma() { return NetworkModel{2e-6, 4e9, 2e10, 1.0}; }

  /// Socket-over-Ethernet-like fabric (PowerLyra's shuffle in the paper).
  static NetworkModel ethernet() { return NetworkModel{30e-6, 1.0e9, 2e10, 1.0}; }

  /// Free fabric: useful for pure-correctness tests.
  static NetworkModel zero() { return NetworkModel{0.0, 1e300, 1e300, 1.0}; }

  /// This model with a different compute scale.
  NetworkModel with_compute_scale(double scale) const {
    NetworkModel m = *this;
    m.compute_scale = scale;
    return m;
  }
};

}  // namespace papar::mp
