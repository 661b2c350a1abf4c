package fl

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"time"

	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// ClientConfig parameterizes the networked FL client.
type ClientConfig struct {
	// ServerAddr is the host:port to dial.
	ServerAddr string
	// DialTimeout bounds connection establishment, and then the wait for
	// the registration ack (default 10s).
	DialTimeout time.Duration
	// Codec names the uplink weight codec this client requests at
	// registration ("raw", "f32", "int8", "topk[:fraction]"); default raw. The
	// server may fall back to raw, echoed in the registration ack.
	Codec string
	// Logf receives progress lines (default log.Printf).
	Logf func(format string, args ...any)
	// Dialer, when non-nil, replaces the TLS dial entirely — the
	// simulator and fltest pass a transport.MemNetwork Dial closure so
	// the client runs over an in-memory link with scripted faults.
	Dialer func() (transport.MessageConn, error)
	// Reconnect enables session resume: on a connection failure the
	// client redials (paced by Backoff) and re-registers presenting its
	// session token, re-attaching to its pending task instead of
	// aborting the run. This is what lets a client ride out a server
	// crash-restart.
	Reconnect bool
	// MaxReconnects bounds consecutive redial attempts per failure
	// (default 5).
	MaxReconnects int
	// Backoff paces reconnect attempts (zero value: 100ms doubling to
	// 30s).
	Backoff Backoff
}

// Client is the networked federation participant: it dials the server with
// its startup-kit credentials, registers with its admission token (and its
// uplink codec preference), then serves task messages by running its
// executor until MsgFinish.
type Client struct {
	cfg  ClientConfig
	kit  *provision.StartupKit
	exec Executor
	// serve answers one task, given its message and the model decoded from
	// its payload, with the uplink payload, its aggregation weight and its
	// mean training loss. A site trains (Client.train); an Edge runs the
	// round over its shard and answers with the merged partial.
	serve func(task *transport.Message, global map[string]*tensor.Matrix) (blob []byte, samples int, loss float64, err error)
	// last is a site's last decoded task model, whose matrices the next
	// task is decoded into. An Edge leaves it nil: its shard round keeps
	// the model it is handed, so each task decodes into fresh matrices.
	last map[string]*tensor.Matrix
	// reply is a site's last uplink payload, whose buffer the next one is
	// encoded into: Write is done with a payload when it returns.
	reply []byte
	codec WeightCodec // requested uplink codec; re-resolved after the ack
	// session is the server-issued session token, presented on
	// re-registration to resume.
	session string
	// retrier paces reconnects.
	retrier *Retrier
}

// NewClient builds a networked client around an executor.
func NewClient(cfg ClientConfig, kit *provision.StartupKit, exec Executor) (*Client, error) {
	if exec == nil {
		return nil, errors.New("fl: client needs an executor")
	}
	c, err := newClient(cfg, kit)
	if err == nil {
		c.exec, c.serve, c.last = exec, c.train, map[string]*tensor.Matrix{}
	}
	return c, err
}

// newClient builds the wire half of a client: everything but who serves its
// tasks.
func newClient(cfg ClientConfig, kit *provision.StartupKit) (*Client, error) {
	if kit.Role != provision.RoleClient {
		return nil, fmt.Errorf("fl: client needs a client kit, got %s", kit.Role)
	}
	codec, err := CodecByName(cfg.Codec)
	if err != nil {
		return nil, fmt.Errorf("fl: Codec %q is not an uplink codec: raw, f32, int8 or topk[:fraction], a fraction in (0, 1]", cfg.Codec)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.MaxReconnects <= 0 {
		cfg.MaxReconnects = 5
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &Client{cfg: cfg, kit: kit, codec: codec, retrier: &Retrier{Backoff: cfg.Backoff}}, nil
}

// connect dials the server and performs the MsgRegister handshake,
// presenting the stored session token (if any) so a redial re-attaches to
// the existing session. On success the negotiated codec and the issued
// session token are stored on the client.
func (c *Client) connect() (transport.MessageConn, error) {
	var conn transport.MessageConn
	if c.cfg.Dialer != nil {
		mc, err := c.cfg.Dialer()
		if err != nil {
			return nil, err
		}
		conn = mc
	} else {
		tlsCfg, err := c.kit.ClientTLS()
		if err != nil {
			return nil, err
		}
		tc, err := transport.Dial(c.cfg.ServerAddr, tlsCfg, c.cfg.DialTimeout)
		if err != nil {
			return nil, err
		}
		conn = tc
	}
	meta := map[string]string{transport.MetaCodec: c.codec.Name()}
	if c.session != "" {
		meta[transport.MetaSession] = c.session
	}
	// A listener that closed with this dial still in its backlog never
	// answers; the deadline turns that into an error the caller can retry.
	_ = conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := conn.Write(&transport.Message{
		Type: transport.MsgRegister, Sender: c.kit.Name, Token: c.kit.Token, Meta: meta,
	}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("fl: %s register: %w", c.kit.Name, err)
	}
	ack, err := conn.Read()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("fl: %s register ack: %w", c.kit.Name, err)
	}
	_ = conn.SetDeadline(time.Time{})
	if ack.Type != transport.MsgRegisterAck || ack.Meta["accepted"] != "true" {
		_ = conn.Close()
		return nil, fmt.Errorf("fl: %s registration rejected: %s", c.kit.Name, ack.Meta["reason"])
	}
	// Honor the server's codec decision (it may have fallen back to raw).
	if accepted := ack.Meta[transport.MetaCodec]; accepted != "" && accepted != c.codec.Name() {
		codec, err := CodecByName(accepted)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("fl: %s server chose unusable codec: %w", c.kit.Name, err)
		}
		c.codec = codec
	}
	if sess := ack.Meta[transport.MetaSession]; sess != "" {
		c.session = sess
	}
	return conn, nil
}

// reconnect redials with backoff, re-registering under the stored session
// token, and only then closes the failed connection. Make-before-break
// matters when the old link is still up (a task damaged in transit): the
// server learns of the replacement from the re-attach, which fences the old
// connection, instead of from that connection's close, a failure that can
// end a round (nothing else in flight) before the re-attach arrives. It
// returns the original cause when reconnection is disabled, no session was
// ever issued, or every attempt fails.
func (c *Client) reconnect(old transport.MessageConn, cause error) (transport.MessageConn, error) {
	if old != nil {
		defer func() { _ = old.Close() }()
	}
	if !c.cfg.Reconnect || c.session == "" {
		return nil, cause
	}
	c.cfg.Logf("fl client %s: connection lost (%v), reconnecting", c.kit.Name, cause)
	var conn transport.MessageConn
	err := c.retrier.Retry(context.Background(), c.cfg.MaxReconnects, func() error {
		var err error
		conn, err = c.connect()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fl: %s reconnect failed: %w (cause: %v)", c.kit.Name, err, cause)
	}
	c.cfg.Logf("fl client %s: session resumed", c.kit.Name)
	return conn, nil
}

// Run connects, registers, and participates until the server finishes.
// It returns the final global weights distributed by the server.
func (c *Client) Run() (map[string]*tensor.Matrix, error) {
	fin, err := c.run()
	if err != nil {
		return nil, err
	}
	final, err := DecodeWeights(fin.Payload)
	if err != nil {
		return nil, fmt.Errorf("fl: %s decode final: %w", c.kit.Name, err)
	}
	c.cfg.Logf("fl client %s: training complete", c.kit.Name)
	return final, nil
}

// train is the default task server: local training through the executor,
// the update encoded with the negotiated uplink codec. Weights with a NaN
// or ±Inf are refused: a lossy codec can turn them into finite codes (int8
// sends a NaN as 0), and the server would then average a diverged model it
// cannot recognise. The encode pass checks each row as it encodes it, so
// the trained weights are read once, into the last reply's buffer.
func (c *Client) train(task *transport.Message, global map[string]*tensor.Matrix) ([]byte, int, float64, error) {
	update, err := c.exec.ExecuteRound(task.Round, global)
	if err != nil {
		return nil, 0, 0, err
	}
	blob, bad, err := encodeChecked(c.codec, c.reply, update.Weights)
	if err != nil {
		return nil, 0, 0, err
	}
	c.reply = blob
	if bad != "" {
		return nil, 0, 0, fmt.Errorf("trained param %q has a non-finite value", bad)
	}
	return blob, update.NumSamples, update.TrainLoss, nil
}

// decodeTask decodes a task's model: a site's into its last task's
// matrices, after which the task's frame goes back to the transport, and
// an Edge's into fresh ones. An Edge keeps the frame: it forwards the
// task's payload to its shard verbatim.
func (c *Client) decodeTask(task *transport.Message) (map[string]*tensor.Matrix, error) {
	if c.last == nil {
		return DecodeWeights(task.Payload)
	}
	global, err := decodeInto(task.Payload, c.last)
	task.Release()
	if err == nil {
		c.last = global
	}
	return global, err
}

// run connects, registers, and serves tasks until the server's MsgFinish,
// which it returns.
func (c *Client) run() (*transport.Message, error) {
	conn, err := c.connect()
	if err != nil {
		return nil, err
	}
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	c.cfg.Logf("fl client %s: registered with server (uplink codec %s)", c.kit.Name, c.codec.Name())

	for {
		msg, err := conn.Read()
		if err != nil {
			if conn, err = c.reconnect(conn, err); err != nil {
				return nil, fmt.Errorf("fl: %s read: %w", c.kit.Name, err)
			}
			continue
		}
		switch msg.Type {
		case transport.MsgTask:
			global, err := c.decodeTask(msg)
			if err != nil {
				// A payload that framed but does not decode is treated
				// like a damaged frame: reconnect and let the server
				// re-send the task.
				if conn, err = c.reconnect(conn, err); err != nil {
					return nil, fmt.Errorf("fl: %s decode global: %w", c.kit.Name, err)
				}
				continue
			}
			reply := &transport.Message{Type: transport.MsgUpdate, Sender: c.kit.Name, Round: msg.Round}
			var loss float64
			reply.Payload, reply.NumSamples, loss, err = c.serve(msg, global)
			if err == nil {
				reply.Meta = map[string]string{"train_loss": strconv.FormatFloat(loss, 'g', -1, 64)}
			} else {
				// Report the failure so the server can requeue or
				// substitute the task instead of timing out — then keep
				// serving. One bad round (a transient data/compute fault)
				// must not take the client out of the federation; the
				// server's health ladder decides when a failure streak
				// warrants quarantine.
				c.cfg.Logf("fl client %s: round %d failed locally: %v", c.kit.Name, msg.Round, err)
				reply.Type, reply.Meta = transport.MsgError, map[string]string{"error": err.Error()}
			}
			if err := conn.Write(reply); err != nil {
				// The reply is lost with the connection; on resume the
				// server re-sends the round's task and the client
				// recomputes.
				if conn, err = c.reconnect(conn, err); err != nil {
					return nil, fmt.Errorf("fl: %s send reply: %w", c.kit.Name, err)
				}
			}
		case transport.MsgPing:
			// Liveness probe: the server demoted us after a failure streak
			// and is checking whether we are worth sampling again.
			if err := conn.Write(&transport.Message{
				Type: transport.MsgPong, Sender: c.kit.Name, Round: msg.Round,
			}); err != nil {
				if conn, err = c.reconnect(conn, err); err != nil {
					return nil, fmt.Errorf("fl: %s pong: %w", c.kit.Name, err)
				}
			}
		case transport.MsgFinish:
			return msg, nil
		case transport.MsgError:
			return nil, fmt.Errorf("fl: %s server error: %s", c.kit.Name, msg.Meta["error"])
		default:
			return nil, fmt.Errorf("fl: %s unexpected message %s", c.kit.Name, msg.Type)
		}
	}
}
