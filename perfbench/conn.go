package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// client is a minimal HTTP/1.1 keep-alive client on one TCP connection.
// It writes pre-serialized requests and reads each response, with a
// Content-Length or a chunked body, into a buffer it reuses, so the load
// generator adds next to nothing to the allocations the server makes in
// the same process.
type client struct {
	addr  string
	conn  net.Conn
	br    *bufio.Reader
	body  []byte
	reqID [64]byte // X-Request-Id of the last response
	idLen int
}

var errResponse = errors.New("malformed HTTP response")

// newClient returns an unconnected client whose body buffer holds
// bodyCap bytes before it has to grow.
func newClient(bodyCap int) *client {
	return &client{br: bufio.NewReaderSize(nil, 64<<10), body: make([]byte, 0, bodyCap)}
}

func dial(addr string) (*client, error) {
	c := newClient(0)
	return c, c.connect(addr)
}

func (c *client) connect(addr string) error {
	c.addr = addr
	return c.redial()
}

func (c *client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.br.Reset(conn)
	return nil
}

// lastReqID returns the X-Request-Id of the last response.
func (c *client) lastReqID() []byte { return c.reqID[:c.idLen] }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// do sends one request and returns the status and the body, which stays
// valid until the next call.  After a transport error the connection is
// replaced, so the next call starts clean.
func (c *client) do(req []byte) (int, []byte, error) {
	status, body, err := c.roundTrip(req)
	if err != nil {
		if rerr := c.redial(); rerr != nil {
			return 0, nil, rerr
		}
	}
	return status, body, err
}

func (c *client) roundTrip(req []byte) (int, []byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errResponse
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length, chunked := -1, false
	c.idLen = 0
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, errResponse
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = atoi(value); err != nil {
				return 0, nil, errResponse
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("X-Request-Id")):
			c.idLen = copy(c.reqID[:], value)
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, perr := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 32)
			if perr != nil {
				return 0, nil, errResponse
			}
			if size == 0 {
				for { // trailers, up to the closing empty line
					if line, err = c.br.ReadSlice('\n'); err != nil {
						return 0, nil, err
					}
					if len(line) <= 2 {
						return status, c.body, nil
					}
				}
			}
			if err = c.readBody(int(size)); err != nil {
				return 0, nil, err
			}
			if _, err = c.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errResponse
	}
	return status, c.body, nil
}

// readBody appends the next n bytes of the connection to c.body.
func (c *client) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

func atoi(b []byte) (int, error) {
	n := 0
	if len(b) == 0 {
		return 0, errResponse
	}
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, errResponse
		}
		n = n*10 + int(ch-'0')
	}
	return n, nil
}
