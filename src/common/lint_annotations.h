#pragma once

/// \file
/// Source annotations consumed by tools/alt_lint (and, under clang, kept in
/// the AST as `annotate` attributes so future AST-based tooling sees them
/// too). No runtime effect on any compiler.

/// \brief Marks a function whose body touches epoch-retired memory (GplModel
/// slot arrays, art::Node trees, FastPointerBuffer segments) WITHOUT pinning
/// the epoch itself.
///
/// The contract: callers must run it inside an epoch-pinned scope — a live
/// alt::EpochGuard, or a scope asserted with ALT_ASSERT_EPOCH_PINNED — or
/// must themselves be ALT_REQUIRES_EPOCH, pushing the obligation outward.
/// `alt-lint`'s `alt-epoch-pinned` check collects every annotated function
/// name across src/ and flags any call that is not dominated by pin evidence.
///
/// This is the static mirror of the PR-2 runtime validators: EpochManager::
/// AssertPinned aborts (under ALT_DEBUG_CHECKS) when an unpinned thread
/// reaches a protected region at runtime; ALT_REQUIRES_EPOCH lets alt-lint
/// prove the property at review time, before any thread runs. Placement is
/// trailing, like the thread-safety macros:
///
///   void CountSlotStates(size_t counts[4]) const ALT_REQUIRES_EPOCH;
#if defined(__clang__) && !defined(SWIG)
#define ALT_REQUIRES_EPOCH __attribute__((annotate("alt::requires_epoch")))
#else
#define ALT_REQUIRES_EPOCH  // no-op; alt-lint keys off the token itself
#endif
