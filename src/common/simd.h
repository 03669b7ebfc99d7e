#pragma once

/// \file Compile-time gate shared by the runtime-dispatched x86 kernels
/// (matching/intersect_simd.cc, nn/inference.cc). RLQVO_SIMD_X86 is 1 when
/// the build carries SIMD kernels at all: an x86 target without
/// -DRLQVO_SIMD=OFF. The kernels themselves use per-function target
/// attributes (no global -mavx2) and pick a variant once per process with
/// __builtin_cpu_supports, so one binary runs on every x86 CPU.

#if !defined(RLQVO_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__))
#define RLQVO_SIMD_X86 1
#else
#define RLQVO_SIMD_X86 0
#endif
