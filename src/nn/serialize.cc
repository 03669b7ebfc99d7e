#include "nn/serialize.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace rlqvo {
namespace nn {

namespace {
constexpr char kMagic[] = "RLQVO-MODEL v1";

// std::stoull THROWS on non-numeric/overflowing input, which would escape
// a Status-based loader as an uncaught exception. Parse defensively.
bool ParseSize(const std::string& token, size_t* out) {
  if (token.empty() ||
      !std::isdigit(static_cast<unsigned char>(token[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace

bool ParseMetadataInt(const std::string& token, int* out) {
  // strtol skips leading whitespace; a metadata value has none.
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseMetadataDouble(const std::string& token, double* out) {
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

Status SaveParameters(const std::vector<Var>& parameters,
                      const std::map<std::string, std::string>& metadata,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing: " +
                           ErrnoMessage(errno));
  }
  out << kMagic << "\n";
  for (const auto& [key, value] : metadata) {
    if (key.find_first_of(" \n") != std::string::npos) {
      return Status::InvalidArgument("metadata key contains whitespace: '" +
                                     key + "'");
    }
    out << "meta " << key << " " << value << "\n";
  }
  out << "params " << parameters.size() << "\n";
  char buf[64];
  for (const Var& p : parameters) {
    const Matrix& m = p.value();
    out << m.rows() << " " << m.cols() << "\n";
    for (size_t i = 0; i < m.values().size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%a", m.values()[i]);
      out << buf << (i + 1 == m.values().size() ? "" : " ");
    }
    out << "\n";
  }
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "': " +
                           ErrnoMessage(errno));
  }
  RLQVO_FAILPOINT("nn.checkpoint_load");
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Status::InvalidArgument("'" + path + "' is not an RLQVO model file");
  }
  Checkpoint ckpt;
  size_t num_params = 0;
  while (std::getline(in, line)) {
    if (line.rfind("meta ", 0) == 0) {
      const std::string rest = line.substr(5);
      const size_t space = rest.find(' ');
      if (space == std::string::npos) {
        return Status::InvalidArgument("malformed meta line: '" + line + "'");
      }
      ckpt.metadata[rest.substr(0, space)] = rest.substr(space + 1);
    } else if (line.rfind("params ", 0) == 0) {
      if (!ParseSize(line.substr(7), &num_params)) {
        return Status::InvalidArgument("malformed params line: '" + line +
                                       "'");
      }
      break;
    } else if (!line.empty()) {
      return Status::InvalidArgument("unexpected line: '" + line + "'");
    }
  }
  for (size_t i = 0; i < num_params; ++i) {
    size_t rows = 0, cols = 0;
    if (!(in >> rows >> cols)) {
      return Status::InvalidArgument("truncated checkpoint (header of matrix " +
                                     std::to_string(i) + ")");
    }
    if (rows != 0 && (cols > kMaxMatrixElements / rows)) {
      return Status::InvalidArgument(
          "implausible matrix header " + std::to_string(rows) + "x" +
          std::to_string(cols) + " in matrix " + std::to_string(i));
    }
    Matrix m(rows, cols);
    for (size_t k = 0; k < rows * cols; ++k) {
      std::string tok;
      if (!(in >> tok)) {
        return Status::InvalidArgument("truncated checkpoint (matrix " +
                                       std::to_string(i) + ")");
      }
      errno = 0;
      char* end = nullptr;
      const double value = std::strtod(tok.c_str(), &end);
      // Reject NaN/inf: a non-finite weight silently poisons every policy
      // score downstream (the RI fallback would mask it at serve time, but
      // a corrupt checkpoint should fail loudly at load time).
      if (end == tok.c_str() || *end != '\0' || errno == ERANGE ||
          !std::isfinite(value)) {
        return Status::InvalidArgument("bad value '" + tok + "' in matrix " +
                                       std::to_string(i));
      }
      m.values()[k] = value;
    }
    ckpt.matrices.push_back(std::move(m));
  }
  return ckpt;
}

Status AssignParameters(const std::vector<Matrix>& values,
                        std::vector<Var>* parameters) {
  RLQVO_CHECK(parameters != nullptr);
  if (values.size() != parameters->size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(values.size()) +
        " matrices, model expects " + std::to_string(parameters->size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].SameShape((*parameters)[i].value())) {
      return Status::InvalidArgument(
          "shape mismatch at parameter " + std::to_string(i) + ": checkpoint " +
          std::to_string(values[i].rows()) + "x" +
          std::to_string(values[i].cols()) + " vs model " +
          std::to_string((*parameters)[i].rows()) + "x" +
          std::to_string((*parameters)[i].cols()));
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    (*parameters)[i].SetValue(values[i]);
  }
  return Status::OK();
}

}  // namespace nn
}  // namespace rlqvo
