package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"

	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/nn"
	"gsfl/internal/optim"
	"gsfl/internal/quantize"
	"gsfl/internal/schemes"
	"gsfl/internal/tensor"
)

// ClientConfig configures one client node.
type ClientConfig struct {
	// ID is the client's fleet index; it must match an entry in the AP's
	// Groups (or it registers as a spare, eligible for slot refill).
	ID int
	// Arch and Cut must match the AP's (the client builds the client-side
	// half structure; parameters arrive over the wire).
	Arch model.Arch
	Cut  int
	// Train is the client's private dataset.
	Train data.Dataset
	// Batch is the mini-batch size.
	Batch int
	// LR / Momentum / ClipNorm / LRDecay* configure the local client-side
	// optimizer; they must match the AP's hyperparameters (the optimizer
	// state relays through the AP between group members).
	LR            float64
	Momentum      float64
	ClipNorm      float64
	LRDecayFactor float64
	LRDecayEvery  int
	// Seed is the shared experiment seed; the loader stream derives from
	// it via schemes.DeriveSeed(Seed, "loader", ID) — the same stream the
	// in-process trainer gives client ID, which is what makes a TCP round
	// replay the simulator's batches exactly.
	Seed int64
	// Quantize must match the AP's setting: 8-bit smashed-data frames
	// out, 8-bit gradient frames expected back.
	Quantize bool
}

// Client is one mobile device participating in GSFL over the network.
type Client struct {
	cfg    ClientConfig
	conn   net.Conn
	fc     *frameConn
	half   *nn.Sequential // the client-side layers
	opt    *optim.SGD
	loader *data.Loader

	// Reusable turn state: the mini-batch destination, the relayed state
	// each train frame decodes into, the gradient each gradient frame
	// decodes into, dequantize/quantize buffers, and the returned state.
	// Steady-state turns allocate no tensor or optimizer storage.
	batch data.Batch
	in    TurnState
	grad  tensor.Tensor
	deq   tensor.Tensor
	qActs quantize.Quantized
	out   TurnState
}

// Dial connects to the AP and registers. The returned Client is ready
// for Run.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c, err := NewClientConn(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClientConn builds a registered client over an existing connection —
// the injection point the fault tests use to interpose faultconn
// wrappers. It takes ownership of conn on success.
func NewClientConn(conn net.Conn, cfg ClientConfig) (*Client, error) {
	if cfg.ID < 0 {
		return nil, fmt.Errorf("transport: negative client id %d", cfg.ID)
	}
	if cfg.Train == nil || cfg.Train.Len() == 0 {
		return nil, errors.New("transport: client has no data")
	}
	// The simulator's own check, so a NaN, a momentum outside [0,1) or a
	// negative clip fails here as it does in a Spec. StepsPerClient is
	// the AP's field, set here only to pass.
	hyper := schemes.Hyper{Batch: cfg.Batch, StepsPerClient: 1,
		LR: cfg.LR, Momentum: cfg.Momentum, ClipNorm: cfg.ClipNorm,
		LRDecayFactor: cfg.LRDecayFactor, LRDecayEvery: cfg.LRDecayEvery}
	if err := hyper.Validate(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	layers, err := buildCut(cfg.Arch, cfg.Cut, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:  cfg,
		conn: conn,
		fc:   newFrameConn(conn, DefaultMaxFrameBytes),
		half: clientHalf(cfg.Arch, layers[:cfg.Cut]),
		opt:  hyper.NewOptimizer(),
		loader: data.NewLoader(cfg.Train, cfg.Batch, cfg.Arch.InShape,
			rand.New(rand.NewSource(schemes.DeriveSeed(cfg.Seed, "loader", cfg.ID)))),
	}
	if err := c.fc.writeHello(cfg.ID, int64(cfg.Train.Len()), cfg.Quantize); err != nil {
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	return c, nil
}

// clientHalf keeps the layers arch puts before the cut — structure
// only: every train frame overwrites their parameters. buildCut makes
// the whole stack; only the client half is kept (the clone lets the
// server half's layers be collected), shape-checked as Split checks
// the stack.
func clientHalf(arch model.Arch, layers []nn.Layer) *nn.Sequential {
	half := nn.NewSequential(slices.Clone(layers)...)
	half.OutShape(arch.InShape)
	return half
}

// Run processes training turns until the AP sends shutdown or the
// connection drops. It always closes the connection before returning.
func (c *Client) Run() error {
	defer c.conn.Close()
	for {
		kind, payload, err := c.fc.readFrame()
		if err != nil {
			return fmt.Errorf("transport: client %d read: %w", c.cfg.ID, err)
		}
		switch kind {
		case frameShutdown:
			return nil
		case frameTrain:
			steps, err := decodeTrain(payload, &c.in)
			if err == nil {
				err = c.trainTurn(steps, &c.in)
			}
			if err != nil {
				return fmt.Errorf("transport: client %d: %w", c.cfg.ID, err)
			}
		default:
			return fmt.Errorf("transport: client %d got unexpected frame kind %d", c.cfg.ID, kind)
		}
	}
}

// trainTurn executes one local training turn: restore the relayed model
// and group optimizer state, run the requested split mini-batches
// against the AP, and return both. The op sequence per step matches the
// simulator's SplitStep exactly.
func (c *Client) trainTurn(steps int, st *TurnState) error {
	if err := c.checkState(st); err != nil {
		return err
	}
	st.Model.Restore(c.half)
	if err := c.opt.Restore(st.Opt); err != nil {
		return fmt.Errorf("restoring optimizer state: %w", err)
	}

	for s := 0; s < steps; s++ {
		c.loader.NextInto(&c.batch)
		smashed := c.half.Forward(c.batch.X, true)
		var err error
		if c.cfg.Quantize {
			quantize.QuantizeInto(&c.qActs, smashed)
			err = c.fc.writeSmashed(nil, &c.qActs, c.batch.Y)
		} else {
			err = c.fc.writeSmashed(smashed, nil, c.batch.Y)
		}
		if err != nil {
			return fmt.Errorf("sending smashed: %w", err)
		}
		kind, payload, err := c.fc.readFrame()
		if err != nil {
			return fmt.Errorf("reading gradient: %w", err)
		}
		if kind != frameGradient {
			return fmt.Errorf("got frame kind %d, want gradient", kind)
		}
		grad, qg, err := decodeGradient(payload, &c.grad)
		if err != nil {
			return err
		}
		g := grad
		if qg != nil {
			g = qg.DequantizeInto(&c.deq)
		}
		if !g.SameShape(smashed) {
			return fmt.Errorf("gradient shape %v, want %v", g.Shape(), smashed.Shape())
		}
		c.half.BackwardParams(g)
		c.opt.Step(c.half.Params(), c.half.Grads(), c.half.DecayMask())
	}

	c.out.Model.CaptureFrom(c.half)
	c.opt.StateInto(&c.out.Opt)
	return c.fc.writeReturn(&c.out)
}

// checkState validates a relayed model against the local structure
// before Restore (which panics on mismatch) can see it.
func (c *Client) checkState(st *TurnState) error {
	params := c.half.Params()
	if len(st.Model.Tensors) != len(params) {
		return fmt.Errorf("relayed model has %d tensors, want %d", len(st.Model.Tensors), len(params))
	}
	for i, t := range st.Model.Tensors {
		if t.Size() != params[i].Size() {
			return fmt.Errorf("relayed model tensor %d size %d, want %d", i, t.Size(), params[i].Size())
		}
	}
	return nil
}
