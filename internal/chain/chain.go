// Package chain implements a simulated Ethereum blockchain state: contract
// accounts deployed over a block timeline spanning the paper's study window
// (October 2023 – October 2024, post-Shanghai).
//
// It substitutes for the real mainnet the paper crawls: the JSON-RPC node
// (internal/ethrpc) and the explorer services (internal/explorer) serve this
// state, so the whole BEM data-gathering pipeline runs end to end against it.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/phishinghook/phishinghook/internal/synth"
)

// Address is a 20-byte Ethereum account address.
type Address [20]byte

// String renders the address as 0x-prefixed lowercase hex.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// ParseAddress parses a 0x-prefixed (or bare) 40-nibble hex address.
func ParseAddress(s string) (Address, error) {
	var a Address
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	s = strings.TrimPrefix(s, "0X")
	b, err := hex.DecodeString(s)
	if err != nil {
		return a, fmt.Errorf("chain: invalid address %q: %w", s, err)
	}
	if len(b) != 20 {
		return a, fmt.Errorf("chain: address %q has %d bytes, want 20", s, len(b))
	}
	copy(a[:], b)
	return a, nil
}

// ErrBadAddress reports a malformed account address.
var ErrBadAddress = errors.New("chain: malformed address")

// ParseAddressInto decodes an address into dst without allocating: the
// ingestion pipeline parses one registry string per observed deployment, and
// ParseAddress's hex.DecodeString scratch slice is the difference between a
// zero-allocation steady state and one allocation per contract at
// chain-backfill volume. Accepts the same forms as ParseAddress; malformed
// input returns ErrBadAddress (a sentinel, so the error path doesn't
// allocate either).
func ParseAddressInto(dst *Address, s string) error {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	s = strings.TrimPrefix(s, "0X")
	if len(s) != 40 {
		return ErrBadAddress
	}
	for i := 0; i < 20; i++ {
		hi, ok1 := fromHexNibble(s[2*i])
		lo, ok2 := fromHexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return ErrBadAddress
		}
		dst[i] = hi<<4 | lo
	}
	return nil
}

func fromHexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// DeriveAddress deterministically derives a contract address from a stream
// seed and a deployment counter. The paper's chain uses Keccak-256 of
// (sender, nonce); SHA-256 substitutes under the stdlib-only constraint —
// addresses are opaque identifiers in every experiment.
func DeriveAddress(seed int64, counter uint64) Address {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:], counter)
	sum := sha256.Sum256(buf[:])
	var a Address
	copy(a[:], sum[:20])
	return a
}

// Block-timeline constants.
const (
	// ShanghaiBlock is where the paper's study begins (fork activation).
	ShanghaiBlock = 17034870
	// StudyStartBlock approximates the first block of October 2023.
	StudyStartBlock = 18250000
	// BlocksPerMonth is the average block count per month at 12 s blocks.
	BlocksPerMonth = 216000
)

// MonthStartBlock returns the first block of study month m (0 = Oct 2023).
func MonthStartBlock(m int) uint64 {
	return StudyStartBlock + uint64(m)*BlocksPerMonth
}

// MonthOfBlock maps a block number back to a study month, clamping to the
// window edges.
func MonthOfBlock(b uint64) int {
	if b < StudyStartBlock {
		return 0
	}
	m := int((b - StudyStartBlock) / BlocksPerMonth)
	if m >= synth.NumMonths {
		return synth.NumMonths - 1
	}
	return m
}

// Contract is one deployed contract account.
type Contract struct {
	// Addr is the account address.
	Addr Address
	// Code is the deployed (runtime) bytecode returned by eth_getCode.
	Code []byte
	// Phishing is the ground-truth class (the label service adds noise on
	// top of this when queried).
	Phishing bool
	// Month is the study month of deployment (0 = Oct 2023).
	Month int
	// Block is the deployment block number.
	Block uint64
}

// Chain is an in-memory contract store ordered by deployment block. It is
// safe for concurrent use.
//
// A chain has two read modes. After Freeze the whole deployment log is
// visible at once (the frozen-corpus mode every batch experiment uses).
// GoLive switches a frozen chain into live mode: a visible-head cursor hides
// every deployment above it, so eth_blockNumber, eth_getCode and the
// explorer registry all advance over simulated time as AdvanceHead (usually
// driven by a Clock) releases blocks.
type Chain struct {
	mu        sync.RWMutex
	byAddr    map[Address]*Contract
	deployed  []*Contract // sorted by (Block, Addr) after Freeze
	headBlock uint64
	frozen    bool
	live      bool
	visible   uint64 // visible head block while live
	// advanced is closed by the next AdvanceHead that moves the visible
	// head; nil until someone asks for it, so an unwatched chain allocates
	// nothing per advance.
	advanced chan struct{}

	// Transaction log (the second modality): txs is sorted by (Block, Hash)
	// after SealTxs, and the same visible-head cursor gates it in live mode.
	txs      []*Tx
	txByHash map[[32]byte]*Tx
	txSealed bool
}

// New returns an empty chain.
func New() *Chain {
	return &Chain{
		byAddr:   make(map[Address]*Contract),
		txByHash: make(map[[32]byte]*Tx),
	}
}

// Deploy records a contract. Deploying to an existing address or deploying
// after Freeze is an error.
func (c *Chain) Deploy(ct *Contract) error {
	if ct == nil || len(ct.Code) == 0 {
		return fmt.Errorf("chain: deploy of empty contract")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return fmt.Errorf("chain: deploy after freeze")
	}
	if _, dup := c.byAddr[ct.Addr]; dup {
		return fmt.Errorf("chain: address collision at %s", ct.Addr)
	}
	c.byAddr[ct.Addr] = ct
	c.deployed = append(c.deployed, ct)
	if ct.Block > c.headBlock {
		c.headBlock = ct.Block
	}
	return nil
}

// Freeze sorts the deployment log and marks the chain immutable; reads are
// lock-free safe afterwards. Idempotent.
func (c *Chain) Freeze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return
	}
	sort.Slice(c.deployed, func(i, j int) bool {
		if c.deployed[i].Block != c.deployed[j].Block {
			return c.deployed[i].Block < c.deployed[j].Block
		}
		return c.deployed[i].Addr.String() < c.deployed[j].Addr.String()
	})
	c.frozen = true
}

// GoLive switches a frozen chain into live mode with the visible head at
// startBlock: contracts deployed above it stay hidden until AdvanceHead
// releases their block. Calling GoLive before Freeze is an error.
func (c *Chain) GoLive(startBlock uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.frozen {
		return fmt.Errorf("chain: GoLive before Freeze")
	}
	c.live = true
	c.visible = startBlock
	if c.visible > c.headBlock {
		c.visible = c.headBlock
	}
	return nil
}

// Live reports whether the chain is in live mode.
func (c *Chain) Live() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live
}

// AdvanceHead releases n more blocks in live mode, clamping at the deployment
// tail, and returns the new visible head. No-op when not live.
func (c *Chain) AdvanceHead(n uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.live {
		return c.headBlock
	}
	before := c.visible
	if n > c.headBlock-c.visible {
		c.visible = c.headBlock
	} else {
		c.visible += n
	}
	if c.visible != before && c.advanced != nil {
		close(c.advanced)
		c.advanced = nil
	}
	return c.visible
}

// Advanced returns a channel closed by the next AdvanceHead that moves the
// visible head: the broadcast behind the node's eth_subscribe push. Take
// the channel before reading the head, so an advance between the two reads
// still closes it.
func (c *Chain) Advanced() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advanced == nil {
		c.advanced = make(chan struct{})
	}
	return c.advanced
}

// visibleLocked reports whether ct is released under the current read mode.
// Callers hold c.mu.
func (c *Chain) visibleLocked(ct *Contract) bool {
	return !c.live || ct.Block <= c.visible
}

// GetCode returns the deployed bytecode at addr, or nil if no contract
// exists there (the JSON-RPC server renders that as "0x", like a real node).
// In live mode, contracts above the visible head do not exist yet.
func (c *Chain) GetCode(addr Address) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ct, ok := c.byAddr[addr]; ok && c.visibleLocked(ct) {
		return ct.Code
	}
	return nil
}

// Lookup returns the full contract record at addr. In live mode, contracts
// above the visible head are not found.
func (c *Chain) Lookup(addr Address) (*Contract, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ct, ok := c.byAddr[addr]
	if ok && !c.visibleLocked(ct) {
		return nil, false
	}
	return ct, ok
}

// HeadBlock returns the highest deployment block seen, or the visible head
// in live mode.
func (c *Chain) HeadBlock() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.live {
		return c.visible
	}
	return c.headBlock
}

// TailBlock returns the final deployment block regardless of live-mode
// visibility (the block at which a live replay ends).
func (c *Chain) TailBlock() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headBlock
}

// Len returns the number of deployed contracts.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byAddr)
}

// ContractsInRange returns contracts with Block in [from, to], in deployment
// order. The chain must be frozen first. In live mode the range is clamped
// to the visible head, so registry listings never leak future deployments.
func (c *Chain) ContractsInRange(from, to uint64) []*Contract {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.frozen {
		panic("chain: ContractsInRange before Freeze")
	}
	if c.live && to > c.visible {
		to = c.visible
	}
	lo := sort.Search(len(c.deployed), func(i int) bool { return c.deployed[i].Block >= from })
	hi := sort.Search(len(c.deployed), func(i int) bool { return c.deployed[i].Block > to })
	out := make([]*Contract, hi-lo)
	copy(out, c.deployed[lo:hi])
	return out
}

// All returns every contract in deployment order. The chain must be frozen.
func (c *Chain) All() []*Contract {
	return c.ContractsInRange(0, ^uint64(0))
}
