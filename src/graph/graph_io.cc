#include "graph/graph_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace rlqvo {

namespace {

/// Parses a non-negative integer; false on any non-numeric content.
bool ParseUint64(const std::string& token, uint64_t* out) {
  if (token.empty()) return false;
  // strtoull accepts a leading '-' (wrapping the value) and '+'; a graph
  // file with "e 0 -1" must be rejected, not wrapped to 2^64-1.
  if (!std::isdigit(static_cast<unsigned char>(token[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

}  // namespace

Result<Graph> ParseGraphText(const std::string& text) {
  RLQVO_FAILPOINT("graph_io.parse");
  std::istringstream in(text);
  std::string line;
  GraphBuilder builder;
  uint32_t declared_vertices = 0;
  uint64_t declared_edges = 0;
  uint64_t edges_added = 0;
  bool saw_header = false;
  size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::vector<std::string> tok = SplitWhitespace(line);
    if (tok.empty()) continue;
    auto error = [&](const std::string& what) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     what + " in '" + line + "'");
    };
    if (tok[0] == "t") {
      if (tok.size() < 3) return error("malformed header");
      uint64_t vertices = 0;
      if (!ParseUint64(tok[1], &vertices) ||
          !ParseUint64(tok[2], &declared_edges)) {
        return error("non-numeric header field");
      }
      // VertexId is 32-bit; a larger declared count would silently
      // truncate below and then "mismatch" confusingly (or, worse, match a
      // wrapped value). Reject the oversized header outright.
      if (vertices > UINT32_MAX) {
        return error("header vertex count exceeds 2^32-1");
      }
      if (tok.size() > 3) {
        // The only recognized header extension; anything else is far more
        // likely a corrupt file than a new dialect.
        if (tok.size() > 4 || tok[3] != "directed") {
          return error("malformed header extension (expected 'directed')");
        }
        builder.set_directed(true);
      }
      saw_header = true;
      declared_vertices = static_cast<uint32_t>(vertices);
    } else if (tok[0] == "v") {
      if (tok.size() < 3) return error("malformed vertex");
      uint64_t id = 0, label = 0;
      if (!ParseUint64(tok[1], &id) || !ParseUint64(tok[2], &label)) {
        return error("non-numeric vertex field");
      }
      if (id != builder.num_vertices()) {
        return error("vertex ids must be dense and ascending");
      }
      if (label > kMaxLabel) return error("vertex label exceeds 2^32-2");
      builder.AddVertex(static_cast<Label>(label));
    } else if (tok[0] == "e") {
      if (tok.size() < 3 || tok.size() > 4) return error("malformed edge");
      uint64_t u = 0, v = 0, elabel = 0;
      if (!ParseUint64(tok[1], &u) || !ParseUint64(tok[2], &v)) {
        return error("non-numeric edge field");
      }
      if (tok.size() == 4) {
        if (!ParseUint64(tok[3], &elabel)) {
          return error("non-numeric edge label");
        }
        if (elabel > UINT32_MAX) return error("edge label exceeds 2^32-1");
      }
      if (u >= builder.num_vertices() || v >= builder.num_vertices()) {
        return error("edge references unknown vertex");
      }
      if (u == v) return error("self-loop");
      builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v),
                      static_cast<EdgeLabel>(elabel));
      ++edges_added;
    } else {
      return error("unknown record type");
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("missing 't <n> <m>' header");
  }
  if (builder.num_vertices() != declared_vertices) {
    return Status::InvalidArgument(
        "header declares " + std::to_string(declared_vertices) +
        " vertices but " + std::to_string(builder.num_vertices()) +
        " were defined");
  }
  Graph g = builder.Build();
  // Duplicate edges are legal input but deduplicated; only flag shortfalls.
  if (edges_added < declared_edges) {
    return Status::InvalidArgument(
        "header declares " + std::to_string(declared_edges) + " edges but " +
        std::to_string(edges_added) + " were defined");
  }
  return g;
}

Result<Graph> LoadGraphFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "': " +
                           ErrnoMessage(errno));
  }
  RLQVO_FAILPOINT("graph_io.load");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read from '" + path + "' failed mid-stream");
  }
  return ParseGraphText(buf.str());
}

std::string GraphToText(const Graph& g) {
  std::ostringstream out;
  out << "t " << g.num_vertices() << " " << g.num_edges()
      << (g.directed() ? " directed" : "") << "\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "v " << v << " " << g.label(v) << " " << g.degree(v) << "\n";
  }
  if (g.degenerate()) {
    // Byte-identical to the pre-directed writer: no edge-label column.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId w : g.neighbors(v)) {
        if (v < w) out << "e " << v << " " << w << "\n";
      }
    }
  } else {
    g.ForEachLabeledEdge([&out](VertexId u, VertexId v, EdgeLabel e) {
      out << "e " << u << " " << v << " " << e << "\n";
    });
  }
  return out.str();
}

Status SaveGraphToFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing: " +
                           ErrnoMessage(errno));
  }
  out << GraphToText(g);
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Versioned binary format (see graph_io.h for the layout).
// ---------------------------------------------------------------------------

namespace {

constexpr char kBinaryMagic[4] = {'R', 'L', 'Q', 'V'};
constexpr uint8_t kVersionUndirected = 1;  // classic vertex-labeled payload
constexpr uint8_t kVersionLabeled = 2;     // direction flag + edge labels
constexpr uint8_t kFlagDirected = 0x01;

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked little-endian reader: every Read* fails (instead of
/// walking off the buffer) on a truncated payload.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& bytes) : data_(bytes) {}

  bool ReadBytes(char* out, size_t n) {
    if (data_.size() - pos_ < n) return false;
    for (size_t i = 0; i < n; ++i) out[i] = data_[pos_ + i];
    pos_ += n;
    return true;
  }
  bool ReadU8(uint8_t* v) {
    char c;
    if (!ReadBytes(&c, 1)) return false;
    *v = static_cast<uint8_t>(c);
    return true;
  }
  bool ReadU32(uint32_t* v) { return ReadLE(v, 4); }
  bool ReadU64(uint64_t* v) { return ReadLE(v, 8); }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  bool ReadLE(T* v, size_t n) {
    if (data_.size() - pos_ < n) return false;
    T value = 0;
    for (size_t i = 0; i < n; ++i) {
      value |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += n;
    *v = value;
    return true;
  }

  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

std::string GraphToBinary(const Graph& g) {
  std::string out;
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  const bool labeled = !g.degenerate();
  AppendU8(&out, labeled ? kVersionLabeled : kVersionUndirected);
  if (labeled) {
    AppendU8(&out, g.directed() ? kFlagDirected : 0);
    AppendU32(&out, g.num_edge_labels());
  }
  AppendU32(&out, g.num_vertices());
  AppendU64(&out, g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) AppendU32(&out, g.label(v));
  if (labeled) {
    g.ForEachLabeledEdge([&out](VertexId u, VertexId v, EdgeLabel e) {
      AppendU32(&out, u);
      AppendU32(&out, v);
      AppendU32(&out, e);
    });
  } else {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId w : g.neighbors(v)) {
        if (v < w) {
          AppendU32(&out, v);
          AppendU32(&out, w);
        }
      }
    }
  }
  return out;
}

Result<Graph> ParseGraphBinary(const std::string& bytes) {
  RLQVO_FAILPOINT("graph_io.parse");
  auto corrupt = [](const std::string& what) {
    return Status::InvalidArgument("corrupt binary graph: " + what);
  };
  BinaryReader in(bytes);
  char magic[sizeof(kBinaryMagic)];
  if (!in.ReadBytes(magic, sizeof(magic)) ||
      !std::equal(magic, magic + sizeof(magic), kBinaryMagic)) {
    return corrupt("bad magic (expected 'RLQV')");
  }
  uint8_t version = 0;
  if (!in.ReadU8(&version)) return corrupt("truncated before version byte");
  if (version != kVersionUndirected && version != kVersionLabeled) {
    return corrupt("unsupported version " + std::to_string(version));
  }
  bool directed = false;
  uint32_t num_edge_labels = 1;
  if (version == kVersionLabeled) {
    uint8_t flags = 0;
    if (!in.ReadU8(&flags)) return corrupt("truncated flags");
    if ((flags & ~kFlagDirected) != 0) {
      return corrupt("unknown flag bits set");
    }
    directed = (flags & kFlagDirected) != 0;
    if (!in.ReadU32(&num_edge_labels)) {
      return corrupt("truncated edge-label count");
    }
    if (num_edge_labels == 0) return corrupt("zero edge-label count");
  }
  uint32_t n = 0;
  uint64_t m = 0;
  if (!in.ReadU32(&n) || !in.ReadU64(&m)) return corrupt("truncated header");
  // Check the payload before the builder reserves for n vertices: a short
  // payload that declares a huge n must not allocate for it.
  if (in.remaining() / 4 < n) return corrupt("truncated vertex labels");
  GraphBuilder builder(n);
  builder.set_directed(directed);
  for (uint32_t v = 0; v < n; ++v) {
    uint32_t label = 0;
    if (!in.ReadU32(&label)) return corrupt("truncated vertex labels");
    if (label > kMaxLabel) return corrupt("vertex label exceeds 2^32-2");
    builder.AddVertex(label);
  }
  for (uint64_t i = 0; i < m; ++i) {
    uint32_t u = 0, v = 0, elabel = 0;
    if (!in.ReadU32(&u) || !in.ReadU32(&v) ||
        (version == kVersionLabeled && !in.ReadU32(&elabel))) {
      return corrupt("truncated edge list");
    }
    if (u >= n || v >= n) return corrupt("edge endpoint out of range");
    if (u == v) return corrupt("self-loop");
    if (elabel >= num_edge_labels) return corrupt("edge label out of range");
    builder.AddEdge(u, v, elabel);
  }
  if (!in.AtEnd()) return corrupt("trailing bytes after edge list");
  return builder.Build();
}

Status SaveGraphBinaryToFile(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing: " +
                           ErrnoMessage(errno));
  }
  const std::string bytes = GraphToBinary(g);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Graph> LoadGraphBinaryFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "': " +
                           ErrnoMessage(errno));
  }
  RLQVO_FAILPOINT("graph_io.load");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read from '" + path + "' failed mid-stream");
  }
  return ParseGraphBinary(buf.str());
}

}  // namespace rlqvo
