// Test-only guard for the process-global kernel mode. A test that switches
// sets with set_active_mode restores the mode the process had before, so
// later tests in the same binary keep running the set DNNFI_KERNELS chose
// (a CI leg pinned to one set stays on it), not CPUID auto.
#pragma once

#include <string>

#include "dnnfi/dnn/kernels/kernels.h"

namespace dnnfi::dnn::kernels {

/// Captures the active mode at construction and restores it on scope exit.
class ModeGuard {
 public:
  ModeGuard() : saved_(kernel_profile().mode) {}
  ~ModeGuard() { set_active_mode(saved_); }
  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  std::string saved_;
};

}  // namespace dnnfi::dnn::kernels
