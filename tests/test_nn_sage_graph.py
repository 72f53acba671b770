"""Tests for the graph substrate, synthetic Cora, and GraphSAGE (SV)."""

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, GraphError
from repro.graph import Graph, cora_like, train_val_test_split
from repro.nn import GraphSAGE, SAGEConv
from repro.runtime import RunContext
from repro.tensor import Tensor


class TestGraph:
    def test_symmetric_edge_index(self):
        g = Graph(4, [[0, 1], [1, 2]])
        assert g.num_edges == 2
        pairs = set(map(tuple, g.edge_index.T.tolist()))
        assert len(pairs) == 4
        assert pairs == {(dst, src) for src, dst in pairs}

    def test_degree(self):
        g = Graph(4, [[0, 1], [1, 2], [1, 3]])
        np.testing.assert_array_equal(g.degree(), [1, 3, 1, 1])

    def test_edge_index_sorted_by_destination_then_source(self):
        g = Graph(5, [[1, 4], [1, 0], [1, 2]])
        src, dst = g.edge_index
        np.testing.assert_array_equal(src[dst == 1], [0, 2, 4])
        assert np.all(np.diff(dst) >= 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [[1, 1]])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [[0, 1], [1, 0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [[0, 5]])

    def test_empty_graph(self):
        g = Graph(3, [])
        assert g.num_edges == 0 and g.edge_index.shape == (2, 0)


class TestCoraLike:
    def test_full_shape_matches_cora(self):
        ds = cora_like(ctx=RunContext(0))
        assert ds.num_nodes == 2708
        assert ds.graph.num_edges == 5429
        assert ds.num_features == 1433
        assert ds.num_classes == 7

    def test_masks_disjoint(self):
        ds = cora_like(num_nodes=300, num_edges=500, num_features=32, ctx=RunContext(0))
        overlap = ds.train_mask & ds.val_mask | ds.train_mask & ds.test_mask
        assert not overlap.any()

    def test_features_binary_sparse(self):
        ds = cora_like(num_nodes=200, num_edges=300, num_features=64, ctx=RunContext(0))
        vals = np.unique(ds.features)
        assert set(vals.tolist()) <= {0.0, 1.0}
        assert ds.features.mean() < 0.5

    def test_assortative_edges(self):
        ds = cora_like(num_nodes=400, num_edges=800, num_features=16,
                       assortativity=0.9, ctx=RunContext(0))
        src, dst = ds.graph.edge_index
        same = float(np.mean(ds.labels[src] == ds.labels[dst]))
        assert same > 0.6

    def test_generation_deterministic_given_seed(self):
        a = cora_like(num_nodes=100, num_edges=150, num_features=16, ctx=RunContext(4))
        b = cora_like(num_nodes=100, num_edges=150, num_features=16, ctx=RunContext(4))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.graph.edge_index, b.graph.edge_index)

    def test_impossible_edge_count_rejected(self):
        with pytest.raises(GraphError):
            cora_like(num_nodes=4, num_edges=100, ctx=RunContext(0))

    def test_split_validation(self):
        with pytest.raises(ConfigurationError):
            train_val_test_split(10, 5, 5, 5, np.random.default_rng(0))


@pytest.fixture()
def small_ds():
    return cora_like(num_nodes=120, num_edges=240, num_features=24,
                     num_classes=4, ctx=RunContext(0))


class TestSAGEConv:
    def test_output_shape(self, small_ds):
        conv = SAGEConv(24, 8, rng=np.random.default_rng(0))
        out = conv(Tensor(small_ds.features), small_ds.graph.edge_index)
        assert out.shape == (120, 8)

    def test_mean_aggregation_value(self):
        # Node 0 receives from nodes 1 and 2.
        conv = SAGEConv(1, 1, aggr="mean", rng=np.random.default_rng(0))
        conv.lin_l.weight.data = np.array([[1.0]], dtype=np.float32)
        conv.lin_l.bias.data = np.zeros(1, dtype=np.float32)
        conv.lin_r.weight.data = np.zeros((1, 1), dtype=np.float32)
        x = Tensor(np.array([[0.0], [2.0], [4.0]], dtype=np.float32))
        edges = np.array([[1, 2, 0, 0], [0, 0, 1, 2]])
        out = conv(x, edges)
        assert out.numpy()[0, 0] == pytest.approx(3.0)

    def test_sum_vs_mean_differ(self, small_ds):
        rngs = [np.random.default_rng(0), np.random.default_rng(0)]
        c_sum = SAGEConv(24, 8, aggr="sum", rng=rngs[0])
        c_mean = SAGEConv(24, 8, aggr="mean", rng=rngs[1])
        x = Tensor(small_ds.features)
        a = c_sum(x, small_ds.graph.edge_index).numpy()
        b = c_mean(x, small_ds.graph.edge_index).numpy()
        assert not np.allclose(a, b)

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ConfigurationError):
            SAGEConv(4, 4, aggr="max")

    def test_bad_edge_index_rejected(self, small_ds):
        conv = SAGEConv(24, 8, rng=np.random.default_rng(0))
        with pytest.raises(GraphError):
            conv(Tensor(small_ds.features), np.array([[0], [999]]))

    def test_deterministic_mode_bitwise_stable(self, small_ds, ctx):
        repro.use_deterministic_algorithms(True)
        conv = SAGEConv(24, 8, rng=np.random.default_rng(0))
        x = Tensor(small_ds.features)
        outs = {conv(x, small_ds.graph.edge_index).numpy().tobytes() for _ in range(4)}
        assert len(outs) == 1


class TestGraphSAGE:
    def test_forward_is_log_probability(self, small_ds):
        model = GraphSAGE(24, 8, 4, rng=np.random.default_rng(0))
        out = model(Tensor(small_ds.features), small_ds.graph.edge_index)
        p = np.exp(out.numpy())
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-4)

    def test_training_reduces_loss(self, small_ds):
        from repro.nn import Adam, functional as F

        repro.use_deterministic_algorithms(True)
        model = GraphSAGE(24, 8, 4, rng=np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=0.02)
        x = Tensor(small_ds.features)
        idx = np.flatnonzero(small_ds.train_mask)
        losses = []
        for _ in range(12):
            opt.zero_grad()
            out = model(x, small_ds.graph.edge_index)
            loss = F.nll_loss(out.gather_rows(idx), small_ds.labels[idx])
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_gradients_reach_all_parameters(self, small_ds):
        from repro.nn import functional as F

        repro.use_deterministic_algorithms(True)
        model = GraphSAGE(24, 8, 4, rng=np.random.default_rng(0))
        out = model(Tensor(small_ds.features), small_ds.graph.edge_index)
        F.nll_loss(out, small_ds.labels).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name

    def test_learns_assortative_labels_better_than_chance(self, small_ds):
        from repro.nn import Adam, functional as F

        repro.use_deterministic_algorithms(True)
        model = GraphSAGE(24, 16, 4, rng=np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=0.05)
        x = Tensor(small_ds.features)
        idx = np.flatnonzero(small_ds.train_mask)
        for _ in range(40):
            opt.zero_grad()
            loss = F.nll_loss(
                model(x, small_ds.graph.edge_index).gather_rows(idx),
                small_ds.labels[idx],
            )
            loss.backward()
            opt.step()
        with repro.deterministic_mode():
            pred = model(x, small_ds.graph.edge_index).numpy().argmax(axis=1)
        test_idx = np.flatnonzero(small_ds.test_mask)
        acc = float(np.mean(pred[test_idx] == small_ds.labels[test_idx]))
        assert acc > 0.3  # 4 classes -> chance is 0.25
