// Portable access to NEON intrinsics: the real <arm_neon.h> on ARM targets,
// the simdcv emulation layer everywhere else. Kernel sources that are written
// against NEON intrinsic names include this header and nothing else.
#pragma once

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#else
#include "simd/neon_emu.hpp"
#endif
