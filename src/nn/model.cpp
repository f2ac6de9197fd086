#include "nn/model.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/pooling.hpp"

namespace affectsys::nn {
namespace {

constexpr std::uint32_t kMagic = 0x4146464Du;  // "AFFM"

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("model load: truncated stream");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const std::uint32_t n = read_u32(is);
  std::string s(n, '\0');
  is.read(s.data(), n);
  if (!is) throw std::runtime_error("model load: truncated string");
  return s;
}

void write_matrix(std::ostream& os, const Matrix& m) {
  write_u32(os, static_cast<std::uint32_t>(m.rows()));
  write_u32(os, static_cast<std::uint32_t>(m.cols()));
  os.write(reinterpret_cast<const char*>(m.flat().data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

Matrix read_matrix(std::istream& is) {
  const std::uint32_t r = read_u32(is);
  const std::uint32_t c = read_u32(is);
  Matrix m(r, c);
  is.read(reinterpret_cast<char*>(m.flat().data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!is) throw std::runtime_error("model load: truncated matrix");
  return m;
}

}  // namespace

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Matrix Sequential::forward(const Matrix& x) {
  Matrix cur = x;
  for (auto& l : layers_) cur = l->forward(cur);
  return cur;
}

Matrix Sequential::forward_from(std::size_t first, const Matrix& x) {
  if (first > layers_.size()) {
    throw std::out_of_range("Sequential::forward_from: layer index");
  }
  Matrix cur = x;
  for (std::size_t i = first; i < layers_.size(); ++i) {
    cur = layers_[i]->forward(cur);
  }
  return cur;
}

const Matrix& Sequential::forward_from_infer(std::size_t first,
                                             const Matrix& x,
                                             ForwardWorkspace& ws) {
  if (first > layers_.size()) {
    throw std::out_of_range("Sequential::forward_from_infer: layer index");
  }
  const Matrix* cur = &x;
  Matrix* nxt = &ws.a;
  for (std::size_t i = first; i < layers_.size(); ++i) {
    layers_[i]->forward_infer(*cur, *nxt);
    cur = nxt;
    nxt = (nxt == &ws.a) ? &ws.b : &ws.a;
  }
  return *cur;
}

Matrix Sequential::backward(const Matrix& grad_out) {
  Matrix cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->count();
  return n;
}

std::size_t Sequential::weight_bytes(std::size_t bytes_per_param) const {
  std::size_t bytes = 0;
  for (const auto& l : layers_) {
    for (Param* p : const_cast<Layer&>(*l).params()) {
      bytes += p->count() * bytes_per_param;
      if (bytes_per_param < sizeof(float)) bytes += sizeof(float);  // scale
    }
  }
  return bytes;
}

void Sequential::save(std::ostream& os) const {
  write_u32(os, kMagic);
  write_u32(os, static_cast<std::uint32_t>(layers_.size()));
  for (const auto& l : layers_) {
    write_string(os, l->kind());
    // Layer-specific shape info needed to reconstruct.
    if (auto* d = dynamic_cast<Dense*>(l.get())) {
      write_u32(os, static_cast<std::uint32_t>(d->in_features()));
      write_u32(os, static_cast<std::uint32_t>(d->out_features()));
    } else if (auto* c = dynamic_cast<Conv1D*>(l.get())) {
      write_u32(os, static_cast<std::uint32_t>(c->in_channels()));
      write_u32(os, static_cast<std::uint32_t>(c->out_channels()));
      write_u32(os, static_cast<std::uint32_t>(c->kernel()));
    } else if (auto* r = dynamic_cast<Lstm*>(l.get())) {
      write_u32(os, static_cast<std::uint32_t>(r->input_size()));
      write_u32(os, static_cast<std::uint32_t>(r->hidden_size()));
    } else if (auto* p = dynamic_cast<MaxPool1D*>(l.get())) {
      write_u32(os, static_cast<std::uint32_t>(p->pool()));
    }
    for (Param* p : l->params()) write_matrix(os, p->value);
  }
}

Sequential Sequential::load(std::istream& is) {
  if (read_u32(is) != kMagic) {
    throw std::runtime_error("model load: bad magic");
  }
  const std::uint32_t n = read_u32(is);
  Sequential model;
  std::mt19937 rng(0);  // init values are immediately overwritten
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string kind = read_string(is);
    std::unique_ptr<Layer> layer;
    if (kind == "dense") {
      const auto in = read_u32(is), out = read_u32(is);
      layer = std::make_unique<Dense>(in, out, rng);
    } else if (kind == "conv1d") {
      const auto in = read_u32(is), out = read_u32(is), k = read_u32(is);
      layer = std::make_unique<Conv1D>(in, out, k, rng);
    } else if (kind == "lstm") {
      const auto in = read_u32(is), hid = read_u32(is);
      layer = std::make_unique<Lstm>(in, hid, rng);
    } else if (kind == "maxpool1d") {
      layer = std::make_unique<MaxPool1D>(read_u32(is));
    } else if (kind == "relu") {
      layer = std::make_unique<Relu>();
    } else if (kind == "last_timestep") {
      layer = std::make_unique<LastTimestep>();
    } else if (kind == "flatten") {
      layer = std::make_unique<Flatten>();
    } else {
      throw std::runtime_error("model load: unknown layer kind " + kind);
    }
    for (Param* p : layer->params()) p->value = read_matrix(is);
    model.add(std::move(layer));
  }
  return model;
}

Sequential build_mlp(const ClassifierSpec& spec, std::mt19937& rng) {
  // Three hidden dense stages.  At the default feature geometry
  // (17 features x 64 timesteps) this lands at ~511k parameters,
  // matching the paper's reported ~508k MLP.
  const std::size_t flat = spec.input_features * spec.timesteps;
  Sequential m;
  m.add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(flat, 416, rng))
      .add(std::make_unique<Relu>())
      .add(std::make_unique<Dense>(416, 128, rng))
      .add(std::make_unique<Relu>())
      .add(std::make_unique<Dense>(128, 36, rng))
      .add(std::make_unique<Relu>())
      .add(std::make_unique<Dense>(36, spec.num_classes, rng));
  return m;
}

Sequential build_cnn(const ClassifierSpec& spec, std::mt19937& rng) {
  // Three conv stages of 32/64/128 channels (the paper's description),
  // flatten + dense head sized so the total lands at ~660k parameters
  // (paper: ~649k) at the default geometry.
  const std::size_t pooled_t = (spec.timesteps + 1) / 2 / 2;
  Sequential m;
  m.add(std::make_unique<Conv1D>(spec.input_features, 32, 5, rng))
      .add(std::make_unique<Relu>())
      .add(std::make_unique<MaxPool1D>(2))
      .add(std::make_unique<Conv1D>(32, 64, 5, rng))
      .add(std::make_unique<Relu>())
      .add(std::make_unique<MaxPool1D>(2))
      .add(std::make_unique<Conv1D>(64, 128, 5, rng))
      .add(std::make_unique<Relu>())
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(pooled_t * 128, 296, rng))
      .add(std::make_unique<Relu>())
      .add(std::make_unique<Dense>(296, spec.num_classes, rng));
  return m;
}

Sequential build_lstm(const ClassifierSpec& spec, std::mt19937& rng) {
  // Two stacked layers (216 + 152 units): ~427k parameters at the default
  // geometry, matching the paper's ~429k LSTM.
  Sequential m;
  m.add(std::make_unique<Lstm>(spec.input_features, 216, rng))
      .add(std::make_unique<Lstm>(216, 152, rng))
      .add(std::make_unique<LastTimestep>())
      .add(std::make_unique<Dense>(152, spec.num_classes, rng));
  return m;
}

const char* model_kind_name(ModelKind k) {
  switch (k) {
    case ModelKind::kMlp:
      return "NN";
    case ModelKind::kCnn:
      return "CNN";
    case ModelKind::kLstm:
      return "LSTM";
  }
  return "?";
}

Sequential build_model(ModelKind kind, const ClassifierSpec& spec,
                       std::mt19937& rng) {
  switch (kind) {
    case ModelKind::kMlp:
      return build_mlp(spec, rng);
    case ModelKind::kCnn:
      return build_cnn(spec, rng);
    case ModelKind::kLstm:
      return build_lstm(spec, rng);
  }
  throw std::invalid_argument("build_model: bad kind");
}

}  // namespace affectsys::nn
