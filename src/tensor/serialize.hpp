// Binary weight (de)serialisation so trained gates can be checkpointed and
// reloaded by the examples without retraining.
#pragma once

#include <string>
#include <vector>

#include "tensor/nn.hpp"

namespace eco::tensor {

/// Writes all parameters (shape + data) to a binary file.
/// Format: magic "ECOW", u32 version, u64 count, then per-parameter:
/// u64 name_len, name bytes, u64 ndim, dims..., float32 data.
[[nodiscard]] bool save_params(const std::vector<Param*>& params,
                               const std::string& path);

/// Loads parameters into an existing module structure; shapes must match.
/// Returns false on I/O error, magic/version mismatch, or shape mismatch;
/// the parameters read before the failure keep the file's values.
///
/// On success every value comes back bit for bit, except that values with
/// |w| < kNegligibleParam (1e-30) come back as +0 (flush_negligible in
/// nn.hpp). NaN and ±Inf load unchanged. A file saved from a gate that
/// train_gate returned therefore loads exactly as saved.
[[nodiscard]] bool load_params(const std::vector<Param*>& params,
                               const std::string& path);

}  // namespace eco::tensor
