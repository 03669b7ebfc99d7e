#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "nn/autograd.h"

namespace rlqvo {
namespace nn {

/// \brief Largest element count LoadCheckpoint accepts for one matrix: the
/// largest real RLQVO checkpoint is a few hundred thousand floats, so a
/// header claiming more than 2^28 elements (2 GiB of doubles) is garbage,
/// and rejecting it keeps a flipped byte from becoming a bad_alloc abort.
inline constexpr size_t kMaxMatrixElements = size_t{1} << 28;

/// \brief Parse a whole checkpoint metadata value without exceptions: false
/// unless the entire token is a decimal int (ParseMetadataInt) or a
/// floating-point number (ParseMetadataDouble; "nan" and "inf" parse, so
/// callers check the range) that fits the type.
bool ParseMetadataInt(const std::string& token, int* out);
bool ParseMetadataDouble(const std::string& token, double* out);

/// \brief Writes parameter matrices (plus string metadata) to a portable
/// text file. Values are written as C hexfloats, so round-trips are exact.
Status SaveParameters(const std::vector<Var>& parameters,
                      const std::map<std::string, std::string>& metadata,
                      const std::string& path);

/// \brief Loaded checkpoint: raw matrices plus metadata.
struct Checkpoint {
  std::vector<Matrix> matrices;
  std::map<std::string, std::string> metadata;
};

/// \brief Reads a checkpoint written by SaveParameters.
Result<Checkpoint> LoadCheckpoint(const std::string& path);

/// \brief Copies checkpoint matrices into existing parameter Vars, checking
/// count and shapes.
Status AssignParameters(const std::vector<Matrix>& values,
                        std::vector<Var>* parameters);

}  // namespace nn
}  // namespace rlqvo
